#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "obs/journal.h"
#include "test_fixtures.h"

namespace mistral::core {
namespace {

struct fixture : ::testing::Test {
    cluster::cluster_model model = test_support::make_model(6, 3);
    cost::cost_table costs = cost::cost_table::paper_defaults();

    cluster::configuration base() const {
        cluster::configuration c(model.vm_count(), model.host_count());
        for (std::size_t h = 0; h < 6; ++h) {
            c.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
        }
        for (std::size_t a = 0; a < 3; ++a) {
            const app_id app{static_cast<std::int32_t>(a)};
            for (std::size_t t = 0; t < 3; ++t) {
                c.deploy(model.tier_vms(app, t)[0],
                         host_id{static_cast<std::int32_t>(2 * a + t % 2)}, 0.4);
            }
        }
        return c;
    }

    static std::vector<pod_spec> halves() {
        return level1_pods({{0, 1, 2}, {3, 4, 5}});
    }
};

using TwoLevelTest = fixture;

TEST_F(TwoLevelTest, RejectsOverlappingGroups) {
    EXPECT_THROW(global_coordinator(model, costs, level1_pods({{0, 1}, {1, 2}})),
                 invariant_error);
    EXPECT_THROW(global_coordinator(model, costs, level1_pods({{0, 99}})),
                 invariant_error);
    EXPECT_THROW(global_coordinator(model, costs, std::vector<pod_spec>{}),
                 invariant_error);
}

TEST_F(TwoLevelTest, DecisionsAreExecutable) {
    global_coordinator h(model, costs, halves());
    auto cfg = base();
    seconds t = 0.0;
    for (double rate : {40.0, 42.0, 55.0, 70.0}) {
        const auto out = h.decide({t, {rate, rate, rate}, cfg, 1.0});
        for (const auto& a : out.actions) {
            std::string why;
            ASSERT_TRUE(applicable(model, cfg, a, &why))
                << to_string(model, a) << ": " << why;
            cfg = apply(model, cfg, a);
        }
        std::string why;
        EXPECT_TRUE(structurally_valid(model, cfg, &why)) << why;
        t += 120.0;
    }
}

TEST_F(TwoLevelTest, LevelOneActsWithinItsGroup) {
    global_coordinator h(model, costs, halves());
    auto cfg = base();
    // Small drift: second level's 8 req/s band does not trip after the first
    // invocation, so any actions come from level-1 controllers.
    h.decide({0.0, {40.0, 40.0, 40.0}, cfg, 1.0});
    const auto out = h.decide({120.0, {43.0, 40.0, 40.0}, cfg, 1.0});
    for (const auto& a : out.actions) {
        const auto k = kind_of(a);
        EXPECT_NE(k, cluster::action_kind::power_on) << to_string(model, a);
        EXPECT_NE(k, cluster::action_kind::power_off) << to_string(model, a);
        EXPECT_NE(k, cluster::action_kind::add_replica) << to_string(model, a);
        EXPECT_NE(k, cluster::action_kind::remove_replica) << to_string(model, a);
    }
}

TEST_F(TwoLevelTest, LevelTwoFiresOnLargeShift) {
    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    controller_builder builder;
    builder.sink(&sink);
    global_coordinator h(model, costs, halves(), builder);
    auto cfg = base();
    h.decide({0.0, {40.0, 40.0, 40.0}, cfg, 1.0});
    h.decide({120.0, {80.0, 40.0, 40.0}, cfg, 1.0});
    // first step + the shift, via the escalation controller's metrics
    EXPECT_GT(registry.counter_value("mistral_pod_global_decisions_total"), 1);
}

TEST_F(TwoLevelTest, EscalationBandIsConfigurable) {
    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    controller_builder builder;
    builder.sink(&sink);
    // A huge band: after the first step the escalation controller never
    // re-fires, no matter the shift.
    global_coordinator h(model, costs, halves(), builder,
                         {.escalation_band = 1000.0});
    auto cfg = base();
    h.decide({0.0, {40.0, 40.0, 40.0}, cfg, 1.0});
    h.decide({120.0, {80.0, 40.0, 40.0}, cfg, 1.0});
    EXPECT_EQ(registry.counter_value("mistral_pod_global_decisions_total"), 1);
}

TEST_F(TwoLevelTest, PerPodMetricsAccumulate) {
    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    controller_builder builder;
    builder.sink(&sink);
    global_coordinator h(model, costs, halves(), builder);
    auto cfg = base();
    seconds t = 0.0;
    for (int i = 0; i < 5; ++i) {
        h.decide({t, {40.0 + i, 40.0, 40.0}, cfg, 1.0});
        t += 120.0;
    }
    // Per-pod and global decision counters plus search-duration histograms.
    const std::int64_t pods =
        registry.counter_value("mistral_pod_0_decisions_total") +
        registry.counter_value("mistral_pod_1_decisions_total");
    EXPECT_GT(pods, 0);
    EXPECT_GT(registry.counter_value("mistral_pod_global_decisions_total"), 0);
    auto histo = registry.register_histogram(
        "mistral_pod_0_search_seconds",
        {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0});
    EXPECT_GE(histo.count() >= 1 ? histo.sum() : 0.0, 0.0);
    // Every decide() with journaling emits per-pod pod_decision events.
    EXPECT_GT(sink.count("pod_decision"), 0u);
}

TEST_F(TwoLevelTest, NameIdentifiesTwoLevels) {
    global_coordinator h(model, costs, level1_pods({{0, 1, 2, 3, 4, 5}}));
    EXPECT_EQ(h.name(), "Mistral-2L");
}

TEST_F(TwoLevelTest, TwoLevelModeRejectsShardedOnlyEconOptions) {
    coordinator_options with_regions;
    with_regions.regions = econ::region_map(
        {{"only", econ::tariff_schedule{}}}, {0, 0});
    EXPECT_THROW(
        global_coordinator(model, costs, halves(), {}, with_regions),
        invariant_error);
    coordinator_options with_schedule;
    with_schedule.budget_schedule = econ::step_series::constant(1000.0);
    EXPECT_THROW(
        global_coordinator(model, costs, halves(), {}, with_schedule),
        invariant_error);
}

}  // namespace
}  // namespace mistral::core
