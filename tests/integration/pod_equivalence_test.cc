// The identity-lens proof: a single-pod global_coordinator must be
// *byte-identical* to the flat mistral_strategy — same invocations, same
// actions, same modeled delays, same accrued utility. This is what licenses
// "the two-level scheme is a special case of pod_controller +
// global_coordinator": the sharding machinery costs nothing when there is
// one shard. The file also steps pods on threads (`parallel_pods`, the only
// threads in the controller) and runs under the `sanitize` label, so the
// thread-sanitizer build race-checks them.
#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/snapshot.h"
#include "workload/generators.h"

namespace mistral::core {
namespace {

scenario small_scenario() {
    scenario_options opts;
    opts.host_count = 4;
    opts.app_count = 2;
    wl::generator_options gen;
    gen.duration = 1.5 * 3600.0;
    gen.seed = 7;
    auto w0 = wl::world_cup_trace(gen, 0).scaled_to_range(0.0, 90.0);
    auto w1 = wl::world_cup_trace(gen, 1).scaled_to_range(0.0, 90.0);
    opts.traces = {w0.renamed("A"), w1.renamed("B")};
    return make_rubis_scenario(opts);
}

TEST(PodEquivalence, SinglePodMatchesFlatControllerSingleThread) {
    const auto scn = small_scenario();
    const auto costs = cost::cost_table::paper_defaults();

    global_coordinator pods(scn.model, costs, uniform_partition(scn.model, 1));
    mistral_strategy flat(scn.model, costs);

    const auto rp = run_scenario(scn, pods);
    const auto rf = run_scenario(scn, flat);

    // Exact floating-point equality, not tolerances: the identity lens hands
    // the flat controller's own inputs through untouched, so every derived
    // number must match to the last bit.
    EXPECT_EQ(rp.cumulative_utility, rf.cumulative_utility);
    EXPECT_EQ(rp.mean_power, rf.mean_power);
    EXPECT_EQ(rp.invocations, rf.invocations);
    EXPECT_EQ(rp.total_actions, rf.total_actions);
    EXPECT_EQ(rp.search_duration.mean(), rf.search_duration.mean());
    EXPECT_EQ(rp.search_duration.max(), rf.search_duration.max());
    EXPECT_EQ(rp.violation_fraction, rf.violation_fraction);
}

// Pods stepped on their own threads decide exactly what sequential stepping
// decides: four pods under a cluster power budget (so the budget broker
// redistributes every interval) and the migration broker, with a null sink
// (a journaling sink would force sequential stepping). Each interval
// compares the plan, the merged decision stats, the pod budgets and the
// whole checkpoint, which holds every pod controller's state.
TEST(PodEquivalence, ParallelPodsMatchSequential) {
    scenario_options sopts;
    sopts.host_count = 16;
    sopts.app_count = 8;
    const auto scn = make_rubis_scenario(sopts);
    const auto costs = cost::cost_table::paper_defaults();
    coordinator_options copts;
    copts.power_budget = 900.0;
    global_coordinator sequential(scn.model, costs, uniform_partition(scn.model, 4),
                                  {}, copts);
    copts.parallel_pods = true;
    global_coordinator threaded(scn.model, costs, uniform_partition(scn.model, 4),
                                {}, copts);

    auto cfg = scn.initial;
    std::size_t planned = 0;
    for (int i = 0; i < 12; ++i) {
        const seconds t = 120.0 * i;
        std::vector<req_per_sec> rates;
        for (std::size_t a = 0; a < scn.model.app_count(); ++a) {
            rates.push_back(20.0 + static_cast<double>((7 * i + 13 * a) % 70));
        }
        const auto s = sequential.decide({t, rates, cfg, 1.0});
        const auto p = threaded.decide({t, rates, cfg, 1.0});
        ASSERT_EQ(p.invoked, s.invoked) << "t=" << t;
        ASSERT_EQ(p.actions, s.actions) << "t=" << t;
        EXPECT_EQ(p.decision_delay, s.decision_delay) << "t=" << t;
        EXPECT_EQ(p.decision_power_cost, s.decision_power_cost) << "t=" << t;
        EXPECT_EQ(p.stats.expansions, s.stats.expansions) << "t=" << t;
        EXPECT_EQ(p.stats.generated, s.stats.generated) << "t=" << t;
        EXPECT_EQ(p.stats.eval_app_solves, s.stats.eval_app_solves) << "t=" << t;
        EXPECT_EQ(threaded.budgets(), sequential.budgets()) << "t=" << t;
        EXPECT_EQ(to_json(snapshot{.taken_at = t, .state = threaded.export_state()}),
                  to_json(snapshot{.taken_at = t, .state = sequential.export_state()}))
            << "t=" << t;
        planned += s.actions.size();
        for (const auto& a : s.actions) cfg = apply(scn.model, cfg, a);
    }
    EXPECT_GT(planned, 0u);
    EXPECT_FALSE(sequential.budgets().empty());
}

// The per-decision trace, compared action-for-action: stronger than the
// aggregate run comparison because it catches compensating differences.
TEST(PodEquivalence, DecisionTraceIsIdenticalStepByStep) {
    const auto scn = small_scenario();
    const auto costs = cost::cost_table::paper_defaults();
    global_coordinator pods(scn.model, costs,
                            uniform_partition(scn.model, 1));
    mistral_strategy flat(scn.model, costs);

    auto cfg_p = scn.initial;
    auto cfg_f = scn.initial;
    seconds t = 0.0;
    for (const double rate : {40.0, 44.0, 60.0, 85.0, 30.0, 12.0}) {
        const auto op = pods.decide({t, {rate, rate * 0.8}, cfg_p, 1.0});
        const auto of = flat.decide({t, {rate, rate * 0.8}, cfg_f, 1.0});
        ASSERT_EQ(op.invoked, of.invoked) << "t=" << t;
        ASSERT_EQ(op.actions, of.actions) << "t=" << t;
        EXPECT_EQ(op.decision_delay, of.decision_delay);
        EXPECT_EQ(op.decision_power_cost, of.decision_power_cost);
        EXPECT_EQ(op.stats.expansions, of.stats.expansions);
        EXPECT_EQ(op.stats.generated, of.stats.generated);
        for (const auto& a : op.actions) {
            cfg_p = apply(scn.model, cfg_p, a);
            cfg_f = apply(scn.model, cfg_f, a);
        }
        t += 120.0;
    }
}

}  // namespace
}  // namespace mistral::core
