// The benchmark's four closed-loop workloads.
//
// Each workload is one `core::run_scenario` over the testbed simulator: the
// controller decides once per 120 s monitoring interval and is asked again
// only when the testbed has finished executing its last plan. The workload
// seed drives every generated input (traces, testbed noise, fault draws);
// seed 1 reproduces the scenarios the paper figures use.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/snapshot.h"
#include "core/strategies.h"
#include "cost/table.h"
#include "obs/journal.h"

namespace perfbench {

// The strategy one closed-loop run drives, with handles on its internals for
// the deterministic per-layer counts.
struct system_under_test {
    std::unique_ptr<mistral::core::gate_sink> gate;  // pods only
    std::unique_ptr<mistral::core::strategy> strategy;
    const mistral::core::mistral_strategy* flat = nullptr;
    const mistral::core::restartable_coordinator* pods = nullptr;
};

struct setup_timing {
    double campaign_ms = 0.0;
    double trace_gen_ms = 0.0;
    double scenario_ms = 0.0;
    double controller_ms = 0.0;
    [[nodiscard]] double total_s() const {
        return (campaign_ms + trace_gen_ms + scenario_ms + controller_ms) / 1000.0;
    }
};

// One run of a workload drives `scenarios_per_run()` closed loops, one per
// scenario seed derived from the run's seed (the first is the run's seed
// itself), so a run's figures average over several generated inputs instead
// of resting on one draw.
class workload {
public:
    virtual ~workload() = default;

    [[nodiscard]] virtual std::string name() const = 0;
    [[nodiscard]] virtual std::size_t scenarios_per_run() const = 0;
    // Worker threads the untraced run uses (the traced run always uses one).
    [[nodiscard]] virtual std::size_t threads() const { return 1; }
    // Host seconds one untraced pass over the run's scenarios takes on an
    // unloaded 4-vCPU VM. A run of --seconds makes a number of passes fixed
    // by this, not by how fast the host happens to be (see main.cc).
    [[nodiscard]] virtual double pass_seconds() const = 0;

    // Builds the inputs of the run with seed `seed`: the cost table (the
    // offline campaign) and, per scenario, traces and the scenario itself.
    // `max_intervals` > 0 cuts the traces after that many monitoring
    // intervals (self-test runs). Timed piecewise into `timing`.
    void prepare(std::uint64_t seed, std::size_t max_intervals, setup_timing& timing);

    [[nodiscard]] const mistral::core::scenario& scenario(std::size_t i) const {
        return scenarios_.at(i);
    }
    [[nodiscard]] const mistral::cost::cost_table& costs() const { return *costs_; }

    // A fresh controller for one closed loop over scenario `i`; `sink`
    // (nullable) receives the journal, `meter` (nullable) replaces the
    // default model-clock meter of a flat controller.
    [[nodiscard]] system_under_test make_system(
        std::size_t i, mistral::obs::sink* sink,
        std::unique_ptr<mistral::core::search_meter> meter) const {
        return make_system(scenario(i), sink, std::move(meter));
    }

protected:
    [[nodiscard]] virtual system_under_test make_system(
        const mistral::core::scenario& scn, mistral::obs::sink* sink,
        std::unique_ptr<mistral::core::search_meter> meter) const = 0;
    // The cost table: the offline measurement campaign's (the figure benches'
    // table), or the paper's published defaults.
    [[nodiscard]] virtual bool measured_costs() const { return true; }
    // Scenario i runs on the part [first, second] of its traces' span, as
    // fractions (default: all of it).
    [[nodiscard]] virtual std::pair<double, double> window(std::size_t /*i*/) const {
        return {0.0, 1.0};
    }
    // Generated traces, one per application.
    [[nodiscard]] virtual std::vector<mistral::wl::trace> make_traces(
        std::uint64_t seed) const = 0;
    [[nodiscard]] virtual mistral::core::scenario_options scenario_options(
        std::uint64_t seed) const = 0;

private:
    std::unique_ptr<mistral::cost::cost_table> costs_;
    std::vector<mistral::core::scenario> scenarios_;
};

[[nodiscard]] std::vector<std::string> workload_names();
// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<workload> make_workload(const std::string& name);

}  // namespace perfbench
