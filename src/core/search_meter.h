// Metering the optimizer's own execution cost.
//
// Section IV-B: "Mistral measures the elapsed time of the search, T, the
// utility accrued of the current configuration, UT, and the power usage of
// the search procedure itself, UpwrT" — the controller is, uniquely, aware of
// the cost of its own decision making ("consuming power to save power").
//
// Two meters implement the same interface: a wall-clock meter for live runs,
// and a deterministic model meter that charges a fixed cost per vertex
// expansion so tests and benches replay exactly. The model meter's default
// per-expansion cost is calibrated so search durations land in the paper's
// regime (seconds for realistic searches, tens of seconds for the naive
// algorithm on 4-app scenarios — Fig. 10b / Table I). The search evaluates on
// one thread, so its power self-cost is search_power() over elapsed().
#pragma once

#include <chrono>
#include <cstddef>

#include "common/units.h"

namespace mistral::core {

class search_meter {
public:
    virtual ~search_meter() = default;

    // Called when a search starts; resets elapsed time.
    virtual void begin() = 0;
    // `evaluations` child evaluations (cost lookup + utility estimate). The
    // search always passes `workers` = 1; meters may ignore it.
    virtual void charge(std::size_t evaluations, std::size_t workers) = 0;
    // One child evaluation.
    void on_expansion() { charge(1, 1); }
    // Time spent searching since begin().
    [[nodiscard]] virtual seconds elapsed() const = 0;
    // Extra power the controller host draws while searching. The paper's
    // Fig. 10a measures up to 12 % over a 60 W idle host ≈ 7 W.
    [[nodiscard]] virtual watts search_power() const = 0;
    // Which time model produced the numbers — the search profiler records it
    // so a journal reader knows whether durations are reproducible
    // ("model_clock") or wall time ("wall_clock").
    [[nodiscard]] virtual const char* kind() const { return "custom"; }
};

class wall_clock_meter final : public search_meter {
public:
    explicit wall_clock_meter(watts search_power = 7.2);

    void begin() override;
    void charge(std::size_t /*evaluations*/, std::size_t /*workers*/) override {}
    [[nodiscard]] seconds elapsed() const override;
    [[nodiscard]] watts search_power() const override { return power_; }
    [[nodiscard]] const char* kind() const override { return "wall_clock"; }

private:
    watts power_;
    std::chrono::steady_clock::time_point start_{};
};

class model_clock_meter final : public search_meter {
public:
    explicit model_clock_meter(seconds per_expansion = 0.002,
                               watts search_power = 7.2);

    void begin() override { expansions_ = 0; }
    void charge(std::size_t evaluations, std::size_t /*workers*/) override {
        expansions_ += evaluations;
    }
    [[nodiscard]] seconds elapsed() const override {
        return per_expansion_ * static_cast<double>(expansions_);
    }
    [[nodiscard]] watts search_power() const override { return power_; }
    [[nodiscard]] const char* kind() const override { return "model_clock"; }

    [[nodiscard]] std::size_t expansions() const { return expansions_; }
    [[nodiscard]] seconds per_expansion() const { return per_expansion_; }

private:
    seconds per_expansion_;
    watts power_;
    std::size_t expansions_ = 0;
};

}  // namespace mistral::core
