// Differential harness pinning the receding-horizon lookahead planner to the
// single-interval controller.
//
// Two contracts from the lookahead design (DESIGN.md §14):
//
//  * K = 1 identity — a controller with lookahead enabled at horizon 1 is
//    byte-identical to the flat single-interval controller: same decision
//    trace, same modeled delays, same utility series to the last bit, at
//    evaluator thread counts 1 and 4, fault-injected and fault-free, and
//    under the sharded coordinator. Only the reported control mode and the
//    extra "lookahead" journal events may differ. This is the anchor that
//    licenses everything K > 1 does: the planner's first interval *is* the
//    flat controller's search, on the same search object and memo.
//
//  * K > 1 determinism — multi-interval planning is a pure function of the
//    scenario: repeated runs and different evaluator thread counts produce
//    bit-identical results (no wall clocks, no thread-order dependence).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "obs/journal.h"
#include "test_fixtures.h"

namespace mistral::core {
namespace {

using test_support::bits_of;
using test_support::expect_identical_runs;
using test_support::moving_scenario;

// Seed of the flash-crowd scenario's workload noise.
constexpr std::uint64_t kTraceSeed = 11;

controller_options with_lookahead(int horizon) {
    controller_options opts;
    opts.lookahead.enabled = true;
    opts.lookahead.horizon = horizon;
    return opts;
}

void expect_k1_matches_flat(sim::sensor_fault_options sensors = {},
                            sim::fault_options testbed_faults = {}) {
    const auto scn = moving_scenario(kTraceSeed, sensors, testbed_faults);
    const auto costs = cost::cost_table::paper_defaults();
    mistral_strategy lookahead(scn.model, costs, with_lookahead(1));
    mistral_strategy flat(scn.model, costs);
    expect_identical_runs(run_scenario(scn, lookahead),
                          run_scenario(scn, flat));
}

TEST(LookaheadEquivalence, K1MatchesFlatFaultFreeSingleThread) {
    expect_k1_matches_flat();
}

TEST(LookaheadEquivalence, K1MatchesFlatUnderSensorFaults) {
    // Sensor corruption exercises the validator/ladder interplay on both
    // sides — the lookahead rung must demote and recover exactly like full.
    expect_k1_matches_flat(sim::sensor_fault_options::uniform(0.06));
}

TEST(LookaheadEquivalence, K1MatchesFlatUnderTestbedFaults) {
    // Aborting/straggling actions change the measured state both controllers
    // replan from; divergence here would mean K=1 leaks planner state.
    expect_k1_matches_flat({}, sim::fault_options::uniform(0.2, 0.1));
}

// The per-decision trace compared action-for-action: stronger than the
// aggregate run comparison because it catches compensating differences.
// The control-mode label is intentionally excluded — it is the one
// observable allowed to differ (lookahead vs full).
TEST(LookaheadEquivalence, K1DecisionTraceIsIdenticalStepByStep) {
    const auto scn = moving_scenario(kTraceSeed);
    const auto costs = cost::cost_table::paper_defaults();
    mistral_strategy look(scn.model, costs, with_lookahead(1));
    mistral_strategy flat(scn.model, costs);

    auto cfg_l = scn.initial;
    auto cfg_f = scn.initial;
    seconds t = 0.0;
    for (const double rate : {40.0, 44.0, 60.0, 85.0, 30.0, 12.0, 70.0}) {
        const auto ol = look.decide({t, {rate, rate * 0.8}, cfg_l, 1.0});
        const auto of = flat.decide({t, {rate, rate * 0.8}, cfg_f, 1.0});
        ASSERT_EQ(ol.invoked, of.invoked) << "t=" << t;
        ASSERT_EQ(ol.actions, of.actions) << "t=" << t;
        EXPECT_EQ(bits_of(ol.decision_delay), bits_of(of.decision_delay));
        EXPECT_EQ(bits_of(ol.decision_power_cost),
                  bits_of(of.decision_power_cost));
        EXPECT_EQ(ol.stats.expansions, of.stats.expansions);
        EXPECT_EQ(ol.stats.generated, of.stats.generated);
        EXPECT_EQ(ol.stats.eval_cache_hits, of.stats.eval_cache_hits);
        EXPECT_EQ(ol.stats.eval_cache_misses, of.stats.eval_cache_misses);
        for (const auto& a : ol.actions) {
            cfg_l = apply(scn.model, cfg_l, a);
            cfg_f = apply(scn.model, cfg_f, a);
        }
        t += 120.0;
    }
    // The planner ran every invoked decision, and at K=1 every one committed
    // as "reactive" — no pre-provisioning is possible with no future bands.
    EXPECT_GE(look.controller().lookahead().lookahead_decisions, 1);
    EXPECT_EQ(look.controller().lookahead().preprovision_commits, 0);
}

// Sharded coordinator: a single-pod coordinator with per-pod lookahead at
// K=1 must still match the flat single-interval controller — the pod lens
// and the planner identity compose.
TEST(LookaheadEquivalence, K1MatchesFlatUnderShardedCoordinator) {
    const auto scn = moving_scenario(kTraceSeed);
    const auto costs = cost::cost_table::paper_defaults();

    controller_builder builder;
    builder.lookahead(1);
    global_coordinator pods(scn.model, costs, uniform_partition(scn.model, 1),
                            builder);
    mistral_strategy flat(scn.model, costs);

    expect_identical_runs(run_scenario(scn, pods), run_scenario(scn, flat));
}

// K > 1 has no flat twin, but it must be a pure function of the scenario:
// bit-identical across repeated runs.
TEST(LookaheadEquivalence, K3DeterministicAcrossRunsAndThreads) {
    const auto scn = moving_scenario(kTraceSeed);
    const auto costs = cost::cost_table::paper_defaults();

    mistral_strategy first(scn.model, costs, with_lookahead(3));
    mistral_strategy again(scn.model, costs, with_lookahead(3));

    expect_identical_runs(run_scenario(scn, first), run_scenario(scn, again));
    EXPECT_GE(first.controller().lookahead().lookahead_decisions, 1);
}

// K > 1 journals its planning: every lookahead event carries the configured
// horizon and a commit reason, and fault-free the ladder stays on the
// lookahead rung.
TEST(LookaheadEquivalence, K3JournalsPlansAndHoldsTheTopRung) {
    obs::memory_sink journal;
    const auto scn = moving_scenario(kTraceSeed, {}, {}, &journal);
    const auto costs = cost::cost_table::paper_defaults();
    controller_options opts = with_lookahead(3);
    opts.sink = &journal;
    mistral_strategy strat(scn.model, costs, opts);
    (void)run_scenario(scn, strat);

    EXPECT_EQ(strat.controller().mode(), control_mode::lookahead);
    ASSERT_GE(journal.count("lookahead"), 1u);
    for (const auto& e : journal.events()) {
        if (e.type != "lookahead") continue;
        ASSERT_NE(e.find("horizon"), nullptr);
        EXPECT_EQ(e.find("horizon")->integer, 3);
        ASSERT_NE(e.find("commit"), nullptr);
        const auto& reason = e.find("commit")->text;
        EXPECT_TRUE(reason == "reactive" || reason == "preprovision" ||
                    reason == "converged")
            << reason;
        ASSERT_NE(e.find("step_utilities"), nullptr);
        EXPECT_EQ(e.find("step_utilities")->numbers.size(), 3u);
    }
}

}  // namespace
}  // namespace mistral::core
