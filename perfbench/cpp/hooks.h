// Bench-owned hooks into the program's public seams.
//
// Every timing the benchmark takes comes from code in this directory, placed
// around calls into the program: a `core::strategy` wrapper that times each
// decision and checks its plan, a `core::search_meter` that stamps each
// search start while pricing exactly like `core::model_clock_meter`, and an
// `obs::sink` that stamps the journal events the controller, search and
// coordinator already emit. Stamps stay in memory; spans are derived from
// them after the run (trace.h).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/action.h"
#include "cluster/configuration.h"
#include "cluster/model.h"
#include "core/search_meter.h"
#include "core/strategies.h"
#include "obs/journal.h"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(bench_clock::time_point a,
                                       bench_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// One timestamped point on the traced run's timeline.
enum class mark_kind {
    step_begin,    // timing wrapper: decide() entered
    step_end,      // timing wrapper: decide() returned
    search_begin,  // stamping meter: search_meter::begin()
    search_end,    // sink: "search" profile event (end of one find())
    decision,      // sink: a controller's per-step "decision" event
    pod_budget,    // sink: coordinator budget redistribution (before pods step)
    restart,       // sink: warm restart finished (checkpoint + tail replayed)
    checkpoint,    // sink: checkpoint taken
};

struct mark {
    mark_kind kind = mark_kind::step_begin;
    bench_clock::time_point t{};
    // search_end only: the search profile's work counts.
    std::int64_t expansions = 0;
    std::int64_t generated = 0;
    std::int64_t plan_actions = 0;
    bool pruned = false;
};

using timeline = std::vector<mark>;

// Prices exactly like core::model_clock_meter (a fixed cost per charged
// evaluation, the same power draw), so decisions are bit-identical to a run
// with the default meter; additionally stamps every begin().
class stamping_meter final : public mistral::core::search_meter {
public:
    explicit stamping_meter(timeline& tl) : tl_(&tl) {}

    void begin() override;
    void charge(std::size_t evaluations, std::size_t /*workers*/) override {
        charged_ += evaluations;
    }
    [[nodiscard]] mistral::seconds elapsed() const override {
        return per_charge_ * static_cast<double>(charged_);
    }
    [[nodiscard]] mistral::watts search_power() const override { return power_; }
    [[nodiscard]] const char* kind() const override { return "model_clock"; }

private:
    timeline* tl_;
    mistral::seconds per_charge_ = 0.002;  // model_clock_meter's default
    mistral::watts power_ = 7.2;
    std::size_t charged_ = 0;
};

// Journaling sink that keeps one stamp per event the trace uses and counts
// non-finite utilities in search events; all other events are dropped.
class stamping_sink final : public mistral::obs::sink {
public:
    explicit stamping_sink(timeline& tl) : tl_(&tl) {}

    [[nodiscard]] bool enabled() const override { return true; }
    void record(const mistral::obs::event& e) override;

    [[nodiscard]] std::size_t non_finite_utilities() const { return non_finite_; }

private:
    timeline* tl_;
    std::size_t non_finite_ = 0;
};

// What the timing wrapper keeps per decide() call.
struct decision_record {
    mistral::seconds now = 0.0;
    bench_clock::time_point entered{};  // when the inner decide() was called
    double wall_ms = 0.0;      // host time of the inner decide()
    double overhead_ms = 0.0;  // host time of the wrapper's checks after it
    bool invoked = false;
    bool failed = false;
    std::string failure;   // first failure reason, for the log
    std::vector<mistral::req_per_sec> rates;
    mistral::cluster::configuration current;
    std::vector<mistral::cluster::action> actions;
    mistral::core::search_stats stats;
};

// Times each decision of the wrapped strategy and checks it: the decision
// must not throw, its plan must apply in sequence from the configuration in
// effect and land on a candidate configuration, and its self-cost must be
// finite. Check and bookkeeping time is kept apart from the decision time.
class timed_strategy final : public mistral::core::strategy {
public:
    timed_strategy(const mistral::cluster::cluster_model& model,
                   mistral::core::strategy& inner, timeline* tl)
        : model_(&model), inner_(&inner), tl_(tl) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    outcome decide(const mistral::core::decision_input& in) override;

    [[nodiscard]] std::vector<decision_record> take_records() { return std::move(records_); }
    // Host seconds spent in the wrapper's own checks and bookkeeping.
    [[nodiscard]] double overhead_s() const { return overhead_s_; }

private:
    const mistral::cluster::cluster_model* model_;
    mistral::core::strategy* inner_;
    timeline* tl_;
    std::vector<decision_record> records_;
    double overhead_s_ = 0.0;
};

}  // namespace perfbench
