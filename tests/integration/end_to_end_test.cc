// Integration tests: the full pipeline — traces → testbed → controllers —
// at reduced scale, checking the paper's qualitative claims end to end.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/two_level.h"
#include "obs/journal.h"
#include "sim/cost_campaign.h"
#include "workload/generators.h"

namespace mistral::core {
namespace {

// A 2-hour slice of the Fig. 4 workloads (covering the first flash crowd)
// keeps runtime test-sized while exercising real dynamics.
scenario crowd_scenario() {
    scenario_options opts;
    opts.host_count = 4;
    opts.app_count = 2;
    wl::generator_options gen;
    gen.duration = 2.0 * 3600.0;
    gen.seed = 1;
    auto wc0 = wl::world_cup_trace(gen, 0).scaled_to_range(0.0, 100.0);
    auto wc1 = wl::world_cup_trace(gen, 1).scaled_to_range(0.0, 100.0);
    opts.traces = {wc0.renamed("RUBiS-1"), wc1.renamed("RUBiS-2")};
    return make_rubis_scenario(opts);
}

class EndToEnd : public ::testing::Test {
protected:
    static const scenario& scn() {
        static const scenario s = crowd_scenario();
        return s;
    }
    static const cost::cost_table& costs() {
        static const cost::cost_table t = cost::cost_table::paper_defaults();
        return t;
    }
};

TEST_F(EndToEnd, MistralBeatsPerfPwrOnUtility) {
    mistral_strategy m(scn().model, costs());
    perf_pwr_strategy pp(scn().model);
    const auto rm = run_scenario(scn(), m);
    const auto rp = run_scenario(scn(), pp);
    EXPECT_GT(rm.cumulative_utility, rp.cumulative_utility);
}

TEST_F(EndToEnd, MistralUsesLessPowerThanPerfCost) {
    mistral_strategy m(scn().model, costs());
    perf_cost_strategy pc(scn().model, costs());
    const auto rm = run_scenario(scn(), m);
    const auto rc = run_scenario(scn(), pc);
    EXPECT_LT(rm.mean_power, rc.mean_power);
}

TEST_F(EndToEnd, MistralConsolidatesDuringLull) {
    mistral_strategy m(scn().model, costs());
    const auto r = run_scenario(scn(), m);
    const auto* hosts = r.series.find("hosts");
    ASSERT_NE(hosts, nullptr);
    double min_hosts = 99.0;
    for (const auto& s : hosts->samples()) min_hosts = std::min(min_hosts, s.value);
    EXPECT_LE(min_hosts, 3.0);  // shuts at least one host at some point
}

TEST_F(EndToEnd, ControllersSurviveFullCampaignTable) {
    // Run Mistral with a *measured* (campaign) cost table instead of the
    // published defaults; the pipeline must hold together identically.
    sim::campaign_options copt;
    copt.workloads = {12.5, 50.0, 100.0};
    copt.trials = 1;
    const auto table = sim::run_cost_campaign(
        scn().model.applications().front(), copt);
    mistral_strategy m(scn().model, table);
    const auto r = run_scenario(scn(), m);
    EXPECT_GT(r.invocations, 0u);
    EXPECT_GT(r.total_actions, 0u);
}

TEST_F(EndToEnd, HierarchicalControllerRunsTheScenario) {
    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    controller_builder builder;
    builder.sink(&sink);
    two_level_controller h(scn().model, costs(), {{0, 1, 2, 3}}, builder);
    const auto r = run_scenario(scn(), h);
    EXPECT_EQ(r.strategy_name, "Mistral-2L");
    EXPECT_GT(r.invocations, 10u);   // level-1 runs every interval
    EXPECT_GT(registry.counter_value("mistral_pod_0_decisions_total"), 0);
}

TEST_F(EndToEnd, SearchSelfAwarenessImprovesOrMatchesUtility) {
    controller_options self_aware;
    controller_options naive;
    naive.search.self_aware = false;
    mistral_strategy sa(scn().model, costs(), self_aware);
    mistral_strategy nv(scn().model, costs(), naive);
    const auto ra = run_scenario(scn(), sa);
    const auto rn = run_scenario(scn(), nv);
    // Fig. 10: self-aware search is much faster; utility over this short
    // 2-hour slice is noisy, so only a loose floor is asserted here (the
    // fig10 bench runs the full-day comparison).
    EXPECT_LT(ra.search_duration.mean(), rn.search_duration.mean());
    EXPECT_GT(ra.cumulative_utility, rn.cumulative_utility - 50.0);
}

TEST_F(EndToEnd, ViolationsConcentrateAroundTheCrowd) {
    mistral_strategy m(scn().model, costs());
    const auto r = run_scenario(scn(), m);
    // The run must not violate in more than a third of intervals overall
    // (the crowd is a minority of the window).
    EXPECT_LT(r.violation_fraction[0], 0.34);
    EXPECT_LT(r.violation_fraction[1], 0.34);
}

}  // namespace
}  // namespace mistral::core
