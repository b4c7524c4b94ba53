// Differential integration tests for degraded-mode operation.
//
// Two contracts from the degraded-mode design:
//
//  * Inertness — the subsystem is compiled in and enabled by default, yet a
//    sensor-fault-free run is byte-identical to a run with every degraded
//    knob switched off: the validator passes clean windows through with
//    identical bits, the ladder never leaves the full rung, and the
//    divergence guard never fires on realistic traces.
//
//  * Damage control — under spiked telemetry (sensor faults corrupting what
//    the controller observes while the testbed's ground truth stays true),
//    the guarded controller demotes down the ladder, journals the
//    transitions, and lands near the fault-free utility, while the same
//    controller with the guard off pays measurably more for the phantom
//    load.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/experiment.h"
#include "obs/journal.h"
#include "test_fixtures.h"
#include "workload/generators.h"

namespace mistral::core {
namespace {

using test_support::expect_identical_runs;

// A two-hour scenario whose workloads actually move (a step and a random
// walk), so band exits, predictions, and adaptation all get exercised.
scenario moving_scenario(sim::sensor_fault_options sensors = {},
                         obs::sink* sink = nullptr) {
    scenario_options opts;
    opts.host_count = 4;
    opts.app_count = 2;
    wl::generator_options gen;
    gen.duration = 2.0 * 3600.0;  // 60 monitoring intervals
    gen.noise = 0.02;
    opts.traces = {wl::step_trace("a", 30.0, 60.0, 3600.0, gen),
                   wl::random_walk_trace("b", 30.0, 70.0, 0.08, gen)};
    opts.sensor_faults = sensors;
    opts.sink = sink;
    return make_rubis_scenario(opts);
}

controller_options all_degraded_machinery_off() {
    controller_options opts;
    opts.degraded.enabled = false;
    opts.arma.divergence.enabled = false;
    return opts;
}

TEST(DegradedMode, SubsystemIsByteInertOnFaultFreeTraces) {
    const auto scn = moving_scenario();
    mistral_strategy guarded(scn.model, cost::cost_table::paper_defaults());
    mistral_strategy bare(scn.model, cost::cost_table::paper_defaults(),
                          all_degraded_machinery_off());
    expect_identical_runs(run_scenario(scn, guarded), run_scenario(scn, bare));

    // And the guarded run never engaged any of the machinery.
    EXPECT_EQ(guarded.controller().mode(), control_mode::full);
    EXPECT_EQ(guarded.controller().degraded().degraded_windows, 0);
    EXPECT_EQ(guarded.controller().degraded().demotions, 0);
    for (const auto& p : guarded.controller().predictors()) {
        EXPECT_TRUE(p.trusted());
        EXPECT_EQ(p.divergence_count(), 0);
    }
}

TEST(DegradedMode, SpikedTelemetryDemotesJournalsAndLimitsTheDamage) {
    sim::sensor_fault_options sensors;
    sensors.spike_probability = 0.15;

    // Ground truth: the same scenario with clean sensors.
    const auto clean = moving_scenario();
    mistral_strategy baseline(clean.model, cost::cost_table::paper_defaults());
    const auto fault_free = run_scenario(clean, baseline);

    // Guarded: the opt-in jump check grades spiked windows degraded (spikes
    // multiply the true rate by at least 2), demoting the ladder to greedy.
    obs::memory_sink journal;
    const auto faulted = moving_scenario(sensors, &journal);
    controller_options guarded_opts;
    guarded_opts.degraded.validator.max_jump_factor = 1.8;
    guarded_opts.degraded.validator.jump_slack = 10.0;
    guarded_opts.sink = &journal;
    mistral_strategy guarded(faulted.model, cost::cost_table::paper_defaults(),
                             guarded_opts);
    const auto with_guard = run_scenario(faulted, guarded);

    // Naive: identical corrupted observations, guard compiled out of the
    // decision path.
    const auto faulted_again = moving_scenario(sensors);
    mistral_strategy naive(faulted_again.model, cost::cost_table::paper_defaults(),
                           all_degraded_machinery_off());
    const auto without_guard = run_scenario(faulted_again, naive);

    // The scenario injected faults and the ladder reacted — and said so.
    EXPECT_GE(journal.count("telemetry_fault"), 1u);
    EXPECT_GE(journal.count("ladder_transition"), 1u);
    EXPECT_GE(guarded.controller().degraded().degraded_windows, 1);
    EXPECT_GE(guarded.controller().degraded().demotions, 1);
    EXPECT_GE(guarded.controller().degraded().greedy_decisions, 1);

    // Damage control: within 5 % of the fault-free utility with the guard,
    // strictly worse without it.
    EXPECT_GE(with_guard.cumulative_utility,
              fault_free.cumulative_utility -
                  0.05 * std::abs(fault_free.cumulative_utility));
    EXPECT_GT(with_guard.cumulative_utility, without_guard.cumulative_utility);
}

}  // namespace
}  // namespace mistral::core
