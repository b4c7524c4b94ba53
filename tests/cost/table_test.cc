#include "cost/table.h"

#include <gtest/gtest.h>

#include "apps/rubis.h"
#include "common/check.h"

namespace mistral::cost {
namespace {

using cluster::action_kind;

cluster::cluster_model make_model() {
    std::vector<apps::application_spec> specs;
    specs.push_back(apps::rubis_browsing("R0"));
    specs.push_back(apps::rubis_browsing("R1"));
    return cluster::cluster_model(cluster::uniform_hosts(4), std::move(specs));
}

TEST(CostTable, EmptyHasNothing) {
    cost_table t;
    EXPECT_FALSE(t.has(action_kind::migrate, 0));
    EXPECT_THROW(t.lookup(action_kind::migrate, 0, 10.0), invariant_error);
}

TEST(CostTable, NearestWorkloadLookup) {
    cost_table t;
    t.add_measurement(action_kind::migrate, 0, 10.0, {5.0, 0.1, 0.05, 10.0});
    t.add_measurement(action_kind::migrate, 0, 50.0, {25.0, 0.5, 0.25, 20.0});
    EXPECT_DOUBLE_EQ(t.lookup(action_kind::migrate, 0, 12.0).duration, 5.0);
    EXPECT_DOUBLE_EQ(t.lookup(action_kind::migrate, 0, 45.0).duration, 25.0);
    // Ties and out-of-range clamp to nearest measured key.
    EXPECT_DOUBLE_EQ(t.lookup(action_kind::migrate, 0, 500.0).duration, 25.0);
}

TEST(CostTable, SamplesAtSameKeyAverage) {
    cost_table t;
    t.add_measurement(action_kind::migrate, 1, 20.0, {10.0, 0.2, 0.1, 10.0});
    t.add_measurement(action_kind::migrate, 1, 20.0, {20.0, 0.4, 0.3, 30.0});
    const auto e = t.lookup(action_kind::migrate, 1, 20.0);
    EXPECT_DOUBLE_EQ(e.duration, 15.0);
    EXPECT_DOUBLE_EQ(e.delta_rt_target, 0.3);
    EXPECT_DOUBLE_EQ(e.delta_rt_colocated, 0.2);
    EXPECT_DOUBLE_EQ(e.delta_power, 20.0);
}

TEST(CostTable, MissingTierFallsBackToTierZero) {
    cost_table t;
    t.add_measurement(action_kind::increase_cpu, 0, 10.0, {1.0, 0.0, 0.0, 0.5});
    EXPECT_DOUBLE_EQ(t.lookup(action_kind::increase_cpu, 2, 10.0).duration, 1.0);
}

// Without tier-0 samples a missing tier falls back to the lowest tier
// measured for the same kind, never to another kind's samples; a kind with
// no samples on any tier still throws.
TEST(CostTable, MissingTierZeroFallsBackToLowestMeasuredTier) {
    cost_table t;
    t.add_measurement(action_kind::add_replica, 2, 10.0, {20.0, 0.0, 0.0, 0.5});
    t.add_measurement(action_kind::add_replica, 1, 10.0, {12.0, 0.0, 0.0, 0.5});
    t.add_measurement(action_kind::migrate, 0, 10.0, {99.0, 0.0, 0.0, 0.5});
    EXPECT_DOUBLE_EQ(t.lookup(action_kind::add_replica, 0, 10.0).duration, 12.0);
    EXPECT_DOUBLE_EQ(t.lookup(action_kind::add_replica, 3, 10.0).duration, 12.0);
    EXPECT_DOUBLE_EQ(t.lookup(action_kind::add_replica, 2, 10.0).duration, 20.0);
    EXPECT_THROW((void)t.lookup(action_kind::remove_replica, 0, 10.0), invariant_error);
    EXPECT_THROW((void)t.lookup(action_kind::power_on, 0, 10.0), invariant_error);
}

TEST(CostTable, ActionLookupResolvesAppAndTier) {
    const auto model = make_model();
    cost_table t;
    t.add_measurement(action_kind::migrate, 2, 30.0, {33.0, 0.3, 0.1, 15.0});
    t.add_measurement(action_kind::migrate, 2, 60.0, {66.0, 0.6, 0.2, 25.0});
    const auto db_vm = model.tier_vms(app_id{1}, 2)[0];
    // App 1's rate (60) selects the second entry even though app 0 is at 30.
    const cluster::action a = cluster::migrate{db_vm, host_id{0}};
    EXPECT_DOUBLE_EQ(t.lookup(model, a, {30.0, 60.0}).duration, 66.0);
}

TEST(CostTable, HostPowerUsesTotalWorkload) {
    const auto model = make_model();
    cost_table t;
    t.add_measurement(action_kind::power_on, 0, 0.0, {90.0, 0.0, 0.0, 80.0});
    t.add_measurement(action_kind::power_on, 0, 100.0, {90.0, 0.0, 0.0, 85.0});
    const cluster::action a = cluster::power_on{host_id{3}};
    // 60 + 50 = 110 → nearest key 100.
    EXPECT_DOUBLE_EQ(t.lookup(model, a, {60.0, 50.0}).delta_power, 85.0);
}

TEST(CostTable, WorkloadsReportsSortedDistinctKeys) {
    cost_table t;
    t.add_measurement(action_kind::migrate, 0, 50.0, {1.0, 0.0, 0.0, 0.0});
    t.add_measurement(action_kind::migrate, 0, 10.0, {1.0, 0.0, 0.0, 0.0});
    t.add_measurement(action_kind::migrate, 0, 50.0, {2.0, 0.0, 0.0, 0.0});
    const auto keys = t.workloads(action_kind::migrate, 0);
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_DOUBLE_EQ(keys[0], 10.0);
    EXPECT_DOUBLE_EQ(keys[1], 50.0);
}

TEST(CostTable, PaperDefaultsCoverAllRubisActions) {
    const auto t = cost_table::paper_defaults();
    for (std::size_t tier = 0; tier < 3; ++tier) {
        EXPECT_TRUE(t.has(action_kind::migrate, tier));
        EXPECT_TRUE(t.has(action_kind::increase_cpu, tier));
        EXPECT_TRUE(t.has(action_kind::decrease_cpu, tier));
    }
    EXPECT_TRUE(t.has(action_kind::add_replica, 2));
    EXPECT_TRUE(t.has(action_kind::remove_replica, 2));
    EXPECT_TRUE(t.has(action_kind::power_on, 0));
    EXPECT_TRUE(t.has(action_kind::power_off, 0));
}

TEST(CostTable, PaperDefaultsMatchFig7Shape) {
    const auto t = cost_table::paper_defaults();
    // Costs grow with workload (Fig. 7): compare 100 vs 800 sessions.
    const auto lo = t.lookup(action_kind::migrate, 2, 12.5);
    const auto hi = t.lookup(action_kind::migrate, 2, 100.0);
    EXPECT_GT(hi.duration, 3.0 * lo.duration);
    EXPECT_GT(hi.delta_rt_target, 3.0 * lo.delta_rt_target);
    EXPECT_GT(hi.delta_power, lo.delta_power);
    // MySQL migration hurts more than Apache migration (Fig. 7b ordering).
    EXPECT_GT(t.lookup(action_kind::migrate, 2, 50.0).delta_rt_target,
              t.lookup(action_kind::migrate, 0, 50.0).delta_rt_target);
}

TEST(CostTable, PaperDefaultsHostCycleConstants) {
    const auto t = cost_table::paper_defaults();
    const auto boot = t.lookup(action_kind::power_on, 0, 0.0);
    EXPECT_DOUBLE_EQ(boot.duration, 90.0);
    EXPECT_DOUBLE_EQ(boot.delta_power, 80.0);
    EXPECT_DOUBLE_EQ(boot.delta_rt_target, 0.0);
    const auto down = t.lookup(action_kind::power_off, 0, 0.0);
    EXPECT_DOUBLE_EQ(down.duration, 30.0);
}

TEST(CostTable, RejectsNegativeInputs) {
    cost_table t;
    EXPECT_THROW(t.add_measurement(action_kind::migrate, 0, -1.0, {}),
                 invariant_error);
    cost_entry bad;
    bad.duration = -5.0;
    EXPECT_THROW(t.add_measurement(action_kind::migrate, 0, 1.0, bad),
                 invariant_error);
}

}  // namespace
}  // namespace mistral::cost
