#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "apps/rubis.h"
#include "cluster/action.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "core/search.h"
#include "core/search_meter.h"

namespace mistral::core {
namespace {

struct fixture : ::testing::Test {
    cluster::cluster_model model = [] {
        std::vector<apps::application_spec> specs;
        specs.push_back(apps::rubis_browsing("R0"));
        specs.push_back(apps::rubis_browsing("R1"));
        return cluster::cluster_model(cluster::uniform_hosts(4), std::move(specs));
    }();

    cluster::configuration base(fraction cap = 0.4) const {
        cluster::configuration c(model.vm_count(), model.host_count());
        for (std::size_t h = 0; h < 4; ++h) {
            c.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
        }
        for (std::size_t a = 0; a < 2; ++a) {
            const app_id app{static_cast<std::int32_t>(a)};
            for (std::size_t t = 0; t < 3; ++t) {
                c.deploy(model.tier_vms(app, t)[0],
                         host_id{static_cast<std::int32_t>(2 * a + t % 2)}, cap);
            }
        }
        return c;
    }
};

using EvaluatorTest = fixture;

// Exposes the whole-solve references the cached paths must match.
struct reference_probe : serial_evaluator {
    using serial_evaluator::serial_evaluator;
    using serial_evaluator::compute;
    using serial_evaluator::compute_isolated;
};

TEST_F(EvaluatorTest, EvaluateRequiresBoundDecision) {
    serial_evaluator ev(model, utility_model{});
    EXPECT_THROW((void)ev.evaluate(base()), invariant_error);
}

TEST_F(EvaluatorTest, BeginDecisionRejectsNegativeAndNaNRates) {
    serial_evaluator ev(model, utility_model{});
    EXPECT_THROW(ev.begin_decision({-1.0, 40.0}), invariant_error);
    EXPECT_THROW(ev.begin_decision({40.0, -0.5}), invariant_error);
    EXPECT_THROW(ev.begin_decision({std::numeric_limits<double>::quiet_NaN(), 40.0}),
                 invariant_error);
    EXPECT_THROW(ev.begin_decision({std::numeric_limits<double>::infinity(), 40.0}),
                 invariant_error);
    // Zero is a legitimate rate (an idle application).
    EXPECT_NO_THROW(ev.begin_decision({0.0, 40.0}));
    EXPECT_NO_THROW((void)ev.evaluate(base()));
}

// The sub-solve cache is a plain LRU: at capacity the least recently used
// entry goes, and a lookup counts as a use.
TEST_F(EvaluatorTest, AppCacheEvictsLeastRecentlyUsedAtCapacity) {
    EXPECT_THROW(app_solve_cache(0), invariant_error);
    const auto sig = [](std::uint64_t k) { return app_signature{{k}}; };
    app_solve_cache cache(2);
    cache.insert(sig(1), {});
    cache.insert(sig(2), {});
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);
    ASSERT_NE(cache.find(sig(1)), nullptr);  // touch: 1 becomes most recent
    cache.insert(sig(3), {});                // evicts 2, not 1
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_NE(cache.find(sig(1)), nullptr);
    EXPECT_EQ(cache.find(sig(2)), nullptr);
    EXPECT_NE(cache.find(sig(3)), nullptr);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 1u);
}

// Perf-Pwr steps caps down by repeated subtraction, so 0.8 − 3·0.05 is a
// few ulps off 0.65 and the two must not share a cache entry. Each is run
// twice, so both the solving and the reusing path meet the reference.
TEST_F(EvaluatorTest, IsolatedReuseKeysCapsByExactBits) {
    reference_probe ev(model, utility_model{});
    ev.begin_decision({60.0, 60.0});
    fraction stepped = 0.8;
    for (int i = 0; i < 3; ++i) stepped -= 0.05;
    ASSERT_NE(stepped, 0.65);
    std::vector<seconds> first_rt;
    for (const fraction cap : {stepped, 0.65, stepped, 0.65}) {
        app_sizing s(2);
        for (auto& app : s) app.assign(3, {1, 0.5});
        s[0][2].cap = cap;  // the database tier
        const auto cached = ev.evaluate_isolated(s);
        const auto fresh = ev.compute_isolated(s);
        EXPECT_EQ(cached.response_times, fresh.response_times) << cap;
        EXPECT_EQ(cached.perf_rate, fresh.perf_rate) << cap;
        EXPECT_EQ(cached.meets_all_targets, fresh.meets_all_targets) << cap;
        if (first_rt.empty()) first_rt = fresh.response_times;
    }
    // At this load the two caps solve to response times an ulp apart, so a
    // key that merged them would have failed above.
    app_sizing exact(2);
    for (auto& app : exact) app.assign(3, {1, 0.5});
    exact[0][2].cap = 0.65;
    EXPECT_NE(ev.compute_isolated(exact).response_times[0], first_rt[0]);
    // App 1 solved once, app 0 once per distinct cap; every other probe hit.
    EXPECT_EQ(ev.stats().isolated_solves, 3u);
    EXPECT_EQ(ev.stats().isolated_hits, 5u);
    // Isolated sub-solves stay out of the placed counters.
    EXPECT_EQ(ev.stats().app_solves, 0u);
    EXPECT_EQ(ev.stats().app_cache_hits + ev.stats().app_cache_misses, 0u);
}

// Placed signatures store caps as milli counts, which is exact only on the
// configuration's 1e-3 grid; an off-grid cap is refused, and isolated
// signatures never alias placed ones.
TEST_F(EvaluatorTest, SignaturesRejectOffGridCapsAndKeepKindsApart) {
    const auto& spec = model.app(app_id{0});
    lqn::app_deployment dep;
    dep.spec = &spec;
    dep.rate = 40.0;
    dep.tiers.resize(spec.tier_count());
    for (std::size_t t = 0; t < spec.tier_count(); ++t) {
        dep.tiers[t].replicas.push_back({t, 0.65});
    }
    const std::vector<double> inflation(spec.tier_count(), 1.0);
    EXPECT_NO_THROW((void)make_app_signature(0, 40.0, dep, inflation));
    fraction stepped = 0.8;
    for (int i = 0; i < 3; ++i) stepped -= 0.05;
    dep.tiers[1].replicas[0].cpu_cap = stepped;
    EXPECT_THROW((void)make_app_signature(0, 40.0, dep, inflation), invariant_error);

    const std::vector<tier_sizing> tiers(spec.tier_count(), {1, 0.65});
    const auto isolated = make_isolated_signature(0, 40.0, tiers);
    dep.tiers[1].replicas[0].cpu_cap = 0.65;
    EXPECT_NE(isolated.words.front(),
              make_app_signature(0, 40.0, dep, inflation).words.front());
    // Exact cap bits: the stepped cap keys apart from 0.65.
    std::vector<tier_sizing> stepped_tiers = tiers;
    stepped_tiers[0].cap = stepped;
    EXPECT_NE(make_isolated_signature(0, 40.0, stepped_tiers), isolated);
}

// ---- the reference check ---------------------------------------------------

void expect_same(const steady_utility& a, const steady_utility& b,
                 const std::string& where) {
    EXPECT_EQ(a.rate, b.rate) << where;
    EXPECT_EQ(a.perf_rate, b.perf_rate) << where;
    EXPECT_EQ(a.power_rate, b.power_rate) << where;
    EXPECT_EQ(a.power, b.power) << where;
    EXPECT_EQ(a.response_times, b.response_times) << where;
    EXPECT_EQ(a.candidate, b.candidate) << where;
    EXPECT_EQ(a.meets_targets, b.meets_targets) << where;
}

std::vector<req_per_sec> draw_rates(rng& r, std::size_t apps) {
    std::vector<req_per_sec> rates;
    for (std::size_t a = 0; a < apps; ++a) rates.push_back(r.uniform(5.0, 100.0));
    return rates;
}

// Evacuates the last host onto the others and marks it failed.
cluster::configuration fail_last_host(const cluster::cluster_model& m,
                                      cluster::configuration c) {
    const host_id down{static_cast<std::int32_t>(m.host_count() - 1)};
    for (const vm_id vm : c.vms_on(down)) {
        bool moved = false;
        for (std::size_t h = 0; h + 1 < m.host_count() && !moved; ++h) {
            const cluster::action a =
                cluster::migrate{vm, host_id{static_cast<std::int32_t>(h)}};
            if (cluster::applicable(m, c, a)) {
                c = cluster::apply(m, c, a);
                moved = true;
            }
        }
        EXPECT_TRUE(moved) << "no room for VM " << vm.value;
    }
    c.set_host_failed(down, true);
    EXPECT_TRUE(cluster::structurally_valid(m, c));
    return c;
}

// A seeded walk of enumerate_actions → apply, in the search's call order:
// at every step the current configuration and then each child. Every
// evaluate() must bit-equal the whole-configuration solve, whatever the
// cache holds. Rates move every ten steps; the cache persists across them.
void walk_placed(const cluster::cluster_model& m, cluster::configuration c,
                 bool host_power, std::uint64_t seed, int steps) {
    rng r(seed);
    reference_probe ev(m, utility_model{});
    cluster::action_menu menu;
    menu.host_power = host_power;
    for (int step = 0; step < steps; ++step) {
        if (step % 10 == 0) ev.begin_decision(draw_rates(r, m.app_count()));
        const std::string at = "seed " + std::to_string(seed) + " step " +
                               std::to_string(step);
        expect_same(ev.evaluate(c), ev.compute(c), at);
        const auto acts = cluster::enumerate_actions(m, c, menu);
        if (acts.empty()) break;
        std::vector<cluster::configuration> children;
        for (const auto& a : acts) {
            children.push_back(cluster::apply(m, c, a));
            expect_same(ev.evaluate(children.back()), ev.compute(children.back()),
                        at + " " + cluster::to_string(m, a));
        }
        if (::testing::Test::HasFailure()) return;
        c = std::move(children[r.uniform_index(children.size())]);
    }
    // Reuse actually happened: the walk is not vacuous.
    EXPECT_GT(ev.stats().app_cache_hits, 0u);
}

// The isolated view along Perf-Pwr's own moves: from maximum sizing, each
// step scores the sizing and every single reduction (one cap_step off a
// cap, or one replica), then takes a random one. Caps therefore carry the
// ulp drift of repeated subtraction, as they do in the optimizer.
void walk_isolated(const cluster::cluster_model& m, std::uint64_t seed, int steps) {
    rng r(seed);
    reference_probe ev(m, utility_model{});
    ev.begin_decision(draw_rates(r, m.app_count()));
    const fraction cap_step = m.limits().cpu_step;
    app_sizing s(m.app_count());
    for (std::size_t a = 0; a < m.app_count(); ++a) {
        for (const auto& tier : m.app(app_id{static_cast<std::int32_t>(a)}).tiers()) {
            s[a].push_back({tier.max_replicas, tier.max_cpu_cap});
        }
    }
    for (int step = 0; step < steps; ++step) {
        std::vector<app_sizing> candidates = {s};
        for (std::size_t a = 0; a < m.app_count(); ++a) {
            const auto& tiers = m.app(app_id{static_cast<std::int32_t>(a)}).tiers();
            for (std::size_t t = 0; t < tiers.size(); ++t) {
                if (s[a][t].cap - cap_step >= tiers[t].min_cpu_cap - 1e-9) {
                    candidates.push_back(s);
                    candidates.back()[a][t].cap -= cap_step;
                }
                if (s[a][t].replicas > tiers[t].min_replicas) {
                    candidates.push_back(s);
                    candidates.back()[a][t].replicas -= 1;
                }
            }
        }
        for (const auto& c : candidates) {
            const auto cached = ev.evaluate_isolated(c);
            const auto fresh = ev.compute_isolated(c);
            EXPECT_EQ(cached.perf_rate, fresh.perf_rate) << "step " << step;
            EXPECT_EQ(cached.response_times, fresh.response_times) << "step " << step;
            EXPECT_EQ(cached.meets_all_targets, fresh.meets_all_targets)
                << "step " << step;
        }
        if (candidates.size() == 1 || ::testing::Test::HasFailure()) break;
        s = candidates[1 + r.uniform_index(candidates.size() - 1)];
    }
    EXPECT_GT(ev.stats().isolated_hits, ev.stats().isolated_solves);
}

// Caching must be invisible in the numbers: along seeded walks on the
// 4-host/2-app fixture and an 8-host/4-app scenario, with and without host
// power actions and with an empty failed host, every evaluation bit-matches
// the whole solve. Since every decision is a function of these values, every
// decision is too.
TEST_F(EvaluatorTest, DeltaEvaluationIsBitIdenticalToFull) {
    scenario_options sopts;
    sopts.host_count = 8;
    sopts.app_count = 4;
    const auto scn = make_rubis_scenario(sopts);
    std::uint64_t seed = 1;
    for (const bool host_power : {true, false}) {
        for (const bool failed : {false, true}) {
            walk_placed(model, failed ? fail_last_host(model, base()) : base(),
                        host_power, seed++, 40);
            walk_placed(scn.model,
                        failed ? fail_last_host(scn.model, scn.initial) : scn.initial,
                        host_power, seed++, 20);
            ASSERT_FALSE(HasFailure())
                << "host_power " << host_power << " failed " << failed;
        }
    }
    walk_isolated(model, seed++, 40);
    walk_isolated(scn.model, seed++, 40);
}

// The fixture places the two apps on disjoint hosts, so perturbing one app
// leaves the other's resource signature untouched.
TEST_F(EvaluatorTest, NeighborEvaluationResolvesOnlyTouchedApps) {
    serial_evaluator ev(model, utility_model{});
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 2u);  // cold: both apps solved

    auto neighbor = base();
    neighbor.set_cap(model.tier_vms(app_id{0}, 0)[0], 0.5);
    (void)ev.evaluate(neighbor);
    EXPECT_EQ(ev.stats().app_solves, 3u);  // only app 0 re-solved
    EXPECT_EQ(ev.stats().app_cache_hits, 1u);
    EXPECT_EQ(ev.stats().app_cache_misses, 3u);
}

// Sub-solves persist across decisions: when the workload returns to a level
// seen before, the cache still holds that level's sub-solves.
TEST_F(EvaluatorTest, AppCachePersistsAcrossDecisions) {
    serial_evaluator ev(model, utility_model{});
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    ev.begin_decision({50.0, 50.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 4u);

    ev.begin_decision({40.0, 40.0});  // back to the first level
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().evaluations, 3u);
    EXPECT_EQ(ev.stats().app_solves, 4u);  // no new sub-solves
    EXPECT_EQ(ev.stats().app_cache_hits, 2u);

    ev.reset();
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 2u);  // reset() cleared the cache
}

// The search reports the engine's per-decision work: every configuration it
// evaluated, and how the sub-solves split between solved and reused.
TEST_F(EvaluatorTest, SearchStatsExposeCacheCounters) {
    adaptation_search search(model, utility_model{},
                             cost::cost_table::paper_defaults(), {});
    model_clock_meter meter;
    const auto r = search.find(base(), {40.0, 40.0}, 600.0, 0.0, meter);
    EXPECT_EQ(r.stats.eval_cache_hits, 0u);
    EXPECT_EQ(r.stats.eval_cache_misses, search.evaluator().stats().evaluations);
    EXPECT_GT(r.stats.eval_cache_misses, 0u);
    EXPECT_GT(r.stats.eval_app_solves, 0u);
    EXPECT_GT(r.stats.eval_app_cache_hits, r.stats.eval_app_solves);
}

}  // namespace
}  // namespace mistral::core
