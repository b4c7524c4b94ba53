#include "core/search.h"

#include <gtest/gtest.h>

#include "apps/rubis.h"
#include "cluster/translate.h"
#include "common/rng.h"
#include "core/perf_pwr.h"
#include "core/planner.h"
#include "test_fixtures.h"

namespace mistral::core {
namespace {

struct fixture : ::testing::Test {
    cluster::cluster_model model = [] {
        std::vector<apps::application_spec> specs;
        specs.push_back(apps::rubis_browsing("R0"));
        specs.push_back(apps::rubis_browsing("R1"));
        return cluster::cluster_model(cluster::uniform_hosts(4), std::move(specs));
    }();
    cost::cost_table costs = cost::cost_table::paper_defaults();

    cluster::configuration base() const {
        cluster::configuration c(model.vm_count(), model.host_count());
        for (std::size_t h = 0; h < 4; ++h) {
            c.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
        }
        for (std::size_t a = 0; a < 2; ++a) {
            const app_id app{static_cast<std::int32_t>(a)};
            for (std::size_t t = 0; t < 3; ++t) {
                c.deploy(model.tier_vms(app, t)[0],
                         host_id{static_cast<std::int32_t>(2 * a + t % 2)}, 0.4);
            }
        }
        return c;
    }

    search_result run(const cluster::configuration& from,
                      const std::vector<req_per_sec>& rates, seconds cw = 600.0,
                      search_options opts = {}) {
        adaptation_search search(model, utility_model{}, costs, opts);
        model_clock_meter meter;
        return search.find(from, rates, cw, 0.0, meter);
    }
};

using SearchTest = fixture;

TEST_F(SearchTest, ReturnedPlanIsExecutable) {
    const auto r = run(base(), {50.0, 50.0});
    cluster::configuration cur = base();
    for (const auto& a : r.actions) {
        std::string why;
        ASSERT_TRUE(applicable(model, cur, a, &why))
            << to_string(model, a) << ": " << why;
        cur = apply(model, cur, a);
    }
    EXPECT_EQ(cur, r.target);
    std::string why;
    EXPECT_TRUE(is_candidate(model, r.target, &why)) << why;
}

TEST_F(SearchTest, ConsolidatesUnderLowLoad) {
    // At trickle load, 4 powered hosts hosting idle VMs waste ~$1.9/interval;
    // the search should find a consolidation.
    const auto r = run(base(), {2.0, 2.0}, 720.0);
    EXPECT_FALSE(r.actions.empty());
    EXPECT_LT(r.target.active_host_count(), 4u);
}

TEST_F(SearchTest, ScalesUpUnderSaturation) {
    // Shrink to a deliberately tight configuration, then present peak load.
    cluster::configuration tight(model.vm_count(), model.host_count());
    tight.set_host_power(host_id{0}, true);
    tight.set_host_power(host_id{1}, true);
    for (std::size_t a = 0; a < 2; ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < 3; ++t) {
            tight.deploy(model.tier_vms(app, t)[0],
                         host_id{static_cast<std::int32_t>(a)}, 0.2);
        }
    }
    const auto before = cluster::predict(model, tight, {85.0, 85.0});
    ASSERT_GT(before.perf.apps[0].mean_response_time, 0.4);
    const auto r = run(tight, {85.0, 85.0}, 720.0);
    EXPECT_FALSE(r.actions.empty());
    const auto after = cluster::predict(model, r.target, {85.0, 85.0});
    EXPECT_LT(after.perf.apps[0].mean_response_time,
              before.perf.apps[0].mean_response_time);
}

TEST_F(SearchTest, StaysWhenAlreadyIdeal) {
    // Run once to land at a good configuration, then search again from it.
    const auto first = run(base(), {50.0, 50.0}, 720.0);
    const auto again = run(first.target, {50.0, 50.0}, 720.0);
    // Either it stays put or makes marginal cap tweaks — never a big plan.
    EXPECT_LE(again.actions.size(), 4u);
}

TEST_F(SearchTest, ExpectedUtilityBoundedByIdeal) {
    // Whatever the search returns — a plan or a stay decision — its expected
    // utility never exceeds the ideal bound (admissibility of the cost-to-go
    // heuristic in average-rate form).
    const auto r = run(base(), {50.0, 50.0});
    EXPECT_GT(r.expected_utility, -1e9);
    EXPECT_LE(r.expected_utility, r.ideal_utility + 1e-6);
}

TEST_F(SearchTest, IdealUtilityIsUpperBound) {
    for (double rate : {10.0, 40.0, 80.0}) {
        const auto r = run(base(), {rate, rate});
        EXPECT_LE(r.expected_utility, r.ideal_utility + 1e-6) << rate;
    }
}

TEST_F(SearchTest, SelfAwareUsesFewerExpansionsThanNaive) {
    search_options self_aware;
    search_options naive;
    naive.self_aware = false;
    const auto fast = run(base(), {50.0, 50.0}, 600.0, self_aware);
    const auto slow = run(base(), {50.0, 50.0}, 600.0, naive);
    EXPECT_LT(fast.stats.expansions, slow.stats.expansions);
    EXPECT_LT(fast.stats.duration, slow.stats.duration);
}

TEST_F(SearchTest, SelfAwareRespectsDelayThreshold) {
    search_options opts;
    opts.delay_threshold_fraction = 0.05;
    opts.stop_factor = 2.0;
    const seconds cw = 600.0;
    const auto r = run(base(), {50.0, 50.0}, cw, opts);
    // Hard stop at 2 · 5 % · CW = 60 s of model time (plus one expansion).
    EXPECT_LE(r.stats.duration, 2.0 * 0.05 * cw + 0.05);
}

TEST_F(SearchTest, SearchPowerCostAccounted) {
    const auto r = run(base(), {50.0, 50.0});
    EXPECT_GT(r.stats.duration, 0.0);
    EXPECT_GT(r.stats.search_power_cost, 0.0);
    // 7.2 W at $0.01/W-interval: cost rate = 7.2 · 0.01 / 120 $/s.
    EXPECT_NEAR(r.stats.search_power_cost,
                r.stats.duration * 7.2 * 0.01 / 120.0, 1e-9);
}

TEST_F(SearchTest, MenuRestrictionsHold) {
    search_options opts;
    opts.menu = {.cpu_tuning = true,
                 .replication = false,
                 .migration = false,
                 .host_power = false};
    const auto r = run(base(), {70.0, 70.0}, 600.0, opts);
    for (const auto& a : r.actions) {
        const auto k = kind_of(a);
        EXPECT_TRUE(k == cluster::action_kind::increase_cpu ||
                    k == cluster::action_kind::decrease_cpu)
            << to_string(model, a);
    }
}

TEST_F(SearchTest, HostScopeRestrictsTouchedHosts) {
    search_options opts;
    opts.host_scope = {true, true, false, false};
    const auto r = run(base(), {60.0, 60.0}, 600.0, opts);
    cluster::configuration cur = base();
    for (const auto& a : r.actions) {
        // No action may involve hosts 2 or 3.
        const auto text = to_string(model, a);
        EXPECT_EQ(text.find("host2"), std::string::npos) << text;
        EXPECT_EQ(text.find("host3"), std::string::npos) << text;
        // And VMs currently outside the scope must not be touched.
        cur = apply(model, cur, a);
    }
}

TEST_F(SearchTest, AppPoolsRestrictPlacements) {
    search_options opts;
    opts.app_hosts = {{true, true, false, false}, {false, false, true, true}};
    const auto r = run(base(), {60.0, 60.0}, 600.0, opts);
    cluster::configuration cur = base();
    for (const auto& a : r.actions) cur = apply(model, cur, a);
    for (const auto& desc : model.vms()) {
        const auto& p = cur.placement(desc.vm);
        if (!p) continue;
        EXPECT_TRUE(opts.app_hosts[desc.app.index()][p->host.index()]);
    }
}

TEST_F(SearchTest, DeterministicWithModelMeter) {
    const auto a = run(base(), {45.0, 55.0});
    const auto b = run(base(), {45.0, 55.0});
    EXPECT_EQ(a.actions.size(), b.actions.size());
    EXPECT_EQ(a.target, b.target);
    EXPECT_DOUBLE_EQ(a.expected_utility, b.expected_utility);
}

TEST_F(SearchTest, PlanBeatsStayingByItsOwnAccounting) {
    // Whenever the search does move, its Eq. 3 value must exceed the value
    // of staying in the current configuration for the whole window.
    const seconds cw = 720.0;
    const auto r = run(base(), {2.0, 2.0}, cw);
    ASSERT_FALSE(r.actions.empty());
    const auto pred = cluster::predict(model, base(), {2.0, 2.0});
    utility_model u;
    std::vector<seconds> rts;
    for (const auto& app : pred.perf.apps) rts.push_back(app.mean_response_time);
    const std::vector<seconds> targets = {u.planning_target(0.4),
                                          u.planning_target(0.4)};
    const std::vector<req_per_sec> rates = {2.0, 2.0};
    const double stay_value = cw * u.steady_rate(rates, rts, targets, pred.power);
    EXPECT_GT(r.expected_utility, stay_value);
}

// find() and value_plan() price plans with one Eq. 3 routine: a returned
// plan, replayed through value_plan under the same rates and window and
// clamped at the Perf-Pwr ideal rate find() clamps at, is worth exactly the
// search's expected utility whenever compress_plan returned the A* path
// unchanged (a spliced detour would drop accrual the search counted). The
// seeded decision walks below, on 4-host/2-app and 8-host/4-app clusters with
// each decision starting where the previous plan landed, produce no detours,
// so every non-empty plan is compared.
TEST(SearchValuation, ValuePlanMatchesTheSearchBitForBit) {
    struct walk {
        std::size_t hosts, apps;
        req_per_sec rate_lo, rate_hi;
        seconds cw_lo, cw_hi;
    };
    std::size_t compared = 0;
    std::size_t spliced = 0;
    // The third walk's heavier load and short windows make the A* take a
    // detour that compress_plan splices out; the reported value must still
    // be the value of the plan that is executed.
    for (const auto& w : {walk{4, 2, 2.0, 90.0, 300.0, 2400.0},
                          walk{8, 4, 2.0, 90.0, 300.0, 2400.0},
                          walk{4, 2, 10.0, 120.0, 120.0, 600.0}}) {
        const auto model = test_support::make_model(w.hosts, w.apps);
        const utility_model utility{};
        const adaptation_search search(model, utility,
                                       cost::cost_table::paper_defaults());
        perf_pwr_optimizer ideal(model, utility, {}, search.shared_evaluator());
        rng r(2026 + w.hosts);
        cluster::configuration current = test_support::base_config(model);
        for (int step = 0; step < 40; ++step) {
            std::vector<req_per_sec> rates(w.apps);
            for (auto& x : rates) x = r.uniform(w.rate_lo, w.rate_hi);
            const seconds cw = r.uniform(w.cw_lo, w.cw_hi);
            model_clock_meter meter;
            const auto res = search.find(current, rates, cw, 0.0, meter);
            if (!res.actions.empty()) {
                const double cap_rate = ideal.optimize(rates, &current).utility_rate;
                const dollars value =
                    search.value_plan(current, res.actions, rates, cw, cap_rate);
                EXPECT_EQ(test_support::bits_of(value),
                          test_support::bits_of(res.expected_utility))
                    << w.hosts << " hosts, step " << step << ": " << value
                    << " vs " << res.expected_utility;
                ++compared;
                if (res.spliced_actions > 0) ++spliced;
            }
            current = res.target;
        }
    }
    EXPECT_GE(compared, 20u);
    EXPECT_GE(spliced, 1u);
}

// Pins self-aware pruning's selection. A delay threshold of 0.05 % of the
// window (with a stop factor of 40) engages pruning within a decision's
// first expansions, so most of these walks' graphs are built from the kept
// fraction of each expansion. The digest folds in every decision's actions,
// expected-utility bits, expansions, generated children and pruned flag: any
// change to which children are kept, or in what order they are recorded,
// moves it. Every plan is also priced again by value_plan, bit for bit.
TEST(SearchPruning, PrunedDecisionsMatchTheirGolden) {
    struct walk {
        std::size_t hosts, apps;
        std::uint64_t seed;
    };
    std::uint64_t digest = 1469598103934665603ull;  // FNV-1a
    auto fold = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            digest = (digest ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
        }
    };
    std::size_t pruned = 0, planned = 0;
    for (const auto& w : {walk{4, 2, 11}, walk{8, 4, 12}}) {
        const auto model = test_support::make_model(w.hosts, w.apps);
        const utility_model utility{};
        search_options opts;
        opts.delay_threshold_fraction = 0.0005;
        opts.stop_factor = 40.0;
        const adaptation_search search(model, utility,
                                       cost::cost_table::paper_defaults(), opts);
        perf_pwr_optimizer ideal(model, utility, {}, search.shared_evaluator());
        rng r(w.seed);
        cluster::configuration current = test_support::base_config(model);
        for (int step = 0; step < 24; ++step) {
            std::vector<req_per_sec> rates(w.apps);
            for (auto& x : rates) x = r.uniform(2.0, 100.0);
            const seconds cw = r.uniform(300.0, 1800.0);
            // A budget the search cost never reaches, so the delay threshold
            // alone switches pruning on.
            const dollars budget = 1e6;
            model_clock_meter meter;
            const auto res = search.find(current, rates, cw, budget, meter);
            for (const auto& a : res.actions) {
                for (const char ch : cluster::to_string(model, a)) {
                    fold(static_cast<unsigned char>(ch));
                }
            }
            fold(test_support::bits_of(res.expected_utility));
            fold(res.stats.expansions);
            fold(res.stats.generated);
            fold(res.stats.pruned ? 1 : 0);
            if (res.stats.pruned) ++pruned;
            if (!res.actions.empty()) {
                ++planned;
                const double cap_rate = ideal.optimize(rates, &current).utility_rate;
                EXPECT_EQ(test_support::bits_of(search.value_plan(
                              current, res.actions, rates, cw, cap_rate)),
                          test_support::bits_of(res.expected_utility))
                    << w.hosts << " hosts, step " << step;
            }
            current = res.target;
        }
    }
    EXPECT_GE(pruned, 24u);
    EXPECT_GE(planned, 12u);
    EXPECT_EQ(digest, 0x6d8419e81e76d9a3ull) << std::hex << digest;
}

}  // namespace
}  // namespace mistral::core
