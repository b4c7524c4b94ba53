#include <gtest/gtest.h>

#include <variant>

#include "core/two_level.h"
#include "obs/journal.h"
#include "test_fixtures.h"

namespace mistral::core {
namespace {

using host_groups = std::vector<std::vector<std::size_t>>;

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

    static host_groups halves() { return {{0, 1, 2}, {3, 4, 5}}; }
};

using TwoLevelTest = fixture;

TEST_F(TwoLevelTest, RejectsOverlappingGroups) {
    EXPECT_THROW(two_level_controller(model, costs, {{0, 1}, {1, 2}}),
                 invariant_error);
    EXPECT_THROW(two_level_controller(model, costs, {{0, 99}}), invariant_error);
    EXPECT_THROW(two_level_controller(model, costs, host_groups{}), invariant_error);
    EXPECT_THROW(two_level_controller(model, costs, {{0, 1}, {}}), invariant_error);
}

TEST_F(TwoLevelTest, LevelOneControllersCarryThePaperShape) {
    controller_builder builder;
    builder.band(5.0).pod(1, [](controller_options& o) { o.band_width = 2.0; });
    two_level_controller h(model, costs, {{2, 0}, {3, 5}}, builder);
    ASSERT_EQ(h.level1_count(), 2u);
    for (std::size_t i = 0; i < h.level1_count(); ++i) {
        const auto& opts = h.level1(i).options();
        // Band 0 under the base band; the pod(i) override still wins.
        EXPECT_EQ(opts.band_width, i == 0 ? 0.0 : 2.0);
        EXPECT_TRUE(opts.search.menu.cpu_tuning);
        EXPECT_TRUE(opts.search.menu.migration);
        EXPECT_FALSE(opts.search.menu.replication);
        EXPECT_FALSE(opts.search.menu.host_power);
        const std::vector<bool> scope = i == 0
            ? std::vector<bool>{true, false, true, false, false, false}
            : std::vector<bool>{false, false, false, true, false, true};
        EXPECT_EQ(opts.search.host_scope, scope);
    }
}

TEST_F(TwoLevelTest, DecisionsAreExecutable) {
    two_level_controller h(model, costs, halves());
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
    obs::metrics_registry registry;
    obs::null_sink sink(&registry);
    controller_builder builder;
    builder.sink(&sink);
    two_level_controller h(model, costs, halves(), builder);
    const auto group_of = [](host_id host) { return host.index() < 3 ? 0 : 1; };
    auto cfg = base();
    // Rates drift around 80 req/s by up to 12: controllers free to use every
    // host would move VMs across the groups on this trace.
    std::vector<req_per_sec> rates(3, 80.0);
    seconds t = 0.0;
    for (int k = 0; k < 30; ++k) {
        const auto escalated = registry.counter_value("mistral_pod_global_actions_total");
        const auto out = h.decide({t, rates, cfg, 1.0});
        // An interval in which the escalation controller acted carries only
        // its plan; every other action comes from a level-1 controller.
        const bool level1 =
            registry.counter_value("mistral_pod_global_actions_total") == escalated;
        for (const auto& a : out.actions) {
            if (level1) {
                const auto kind = kind_of(a);
                EXPECT_NE(kind, cluster::action_kind::power_on) << to_string(model, a);
                EXPECT_NE(kind, cluster::action_kind::power_off) << to_string(model, a);
                EXPECT_NE(kind, cluster::action_kind::add_replica)
                    << to_string(model, a);
                EXPECT_NE(kind, cluster::action_kind::remove_replica)
                    << to_string(model, a);
                // A level-1 controller moves VMs only between its own hosts.
                if (const auto* m = std::get_if<cluster::migrate>(&a)) {
                    const auto& from = cfg.placement(m->vm);
                    ASSERT_TRUE(from.has_value()) << to_string(model, a);
                    EXPECT_EQ(group_of(from->host), group_of(m->to))
                        << "interval " << k << ": " << to_string(model, a);
                }
            }
            cfg = apply(model, cfg, a);
        }
        for (std::size_t i = 0; i < rates.size(); ++i) {
            rates[i] = 80.0 + 6.0 * static_cast<double>(
                                        static_cast<int>((k * 7 + i * 3) % 5) - 2);
        }
        t += 120.0;
    }
    EXPECT_GT(registry.counter_value("mistral_pod_0_decisions_total") +
                  registry.counter_value("mistral_pod_1_decisions_total"),
              0);
}

TEST_F(TwoLevelTest, LevelTwoFiresOnLargeShift) {
    obs::metrics_registry registry;
    obs::memory_sink sink(&registry);
    controller_builder builder;
    builder.sink(&sink);
    two_level_controller h(model, costs, halves(), builder);
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
    // A huge base band: after the first step the escalation controller never
    // re-fires, no matter the shift (level-1 controllers keep band 0).
    builder.sink(&sink).band(1000.0);
    two_level_controller h(model, costs, halves(), builder);
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
    two_level_controller h(model, costs, halves(), builder);
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
    two_level_controller h(model, costs, {{0, 1, 2, 3, 4, 5}});
    EXPECT_EQ(h.name(), "Mistral-2L");
}

}  // namespace
}  // namespace mistral::core
