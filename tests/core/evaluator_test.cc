#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <limits>

#include "apps/rubis.h"
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

// ---- eval_memo -------------------------------------------------------------

TEST_F(EvaluatorTest, MemoCountsHitsAndMisses) {
    serial_evaluator ev(model, utility_model{});
    ev.begin_decision({40.0, 40.0});
    const auto a = ev.evaluate(base(0.4));
    const auto b = ev.evaluate(base(0.4));  // identical configuration
    EXPECT_EQ(ev.stats().cache_misses, 1u);
    EXPECT_EQ(ev.stats().cache_hits, 1u);
    EXPECT_EQ(ev.stats().evaluations, 1u);
    EXPECT_EQ(a.rate, b.rate);
    EXPECT_EQ(a.response_times, b.response_times);
}

TEST_F(EvaluatorTest, MemoEvictsAtCapacity) {
    eval_memo memo(2);
    memo.bind_rates({40.0, 40.0}, 0.0);
    memo.insert(base(0.3), {});
    memo.insert(base(0.4), {});
    EXPECT_EQ(memo.size(), 2u);
    EXPECT_EQ(memo.evictions(), 0u);
    memo.insert(base(0.5), {});
    EXPECT_EQ(memo.size(), 2u);
    EXPECT_EQ(memo.evictions(), 1u);
    // Least-recently-used entry (0.3 caps) was the one dropped.
    EXPECT_EQ(memo.find(base(0.3)), nullptr);
    EXPECT_NE(memo.find(base(0.4)), nullptr);
    EXPECT_NE(memo.find(base(0.5)), nullptr);
}

TEST_F(EvaluatorTest, MemoLruTouchProtectsFromEviction) {
    eval_memo memo(2);
    memo.bind_rates({40.0, 40.0}, 0.0);
    memo.insert(base(0.3), {});
    memo.insert(base(0.4), {});
    ASSERT_NE(memo.find(base(0.3)), nullptr);  // touch: 0.3 becomes MRU
    memo.insert(base(0.5), {});                // evicts 0.4, not 0.3
    EXPECT_NE(memo.find(base(0.3)), nullptr);
    EXPECT_EQ(memo.find(base(0.4)), nullptr);
}

TEST_F(EvaluatorTest, QuantizationCollapsesNearbyRates) {
    // One grid cell: rates within the same cell share a key…
    EXPECT_EQ(eval_memo::quantize({10.2, 19.9}, 0.5),
              eval_memo::quantize({10.0, 20.0}, 0.5));
    // …and different cells do not.
    EXPECT_NE(eval_memo::quantize({10.0, 20.0}, 0.5),
              eval_memo::quantize({11.0, 20.0}, 0.5));
    // Exact mode: any bit-level difference is a different key.
    EXPECT_NE(eval_memo::quantize({10.0, 20.0}, 0.0),
              eval_memo::quantize({10.0 + 1e-12, 20.0}, 0.0));
    EXPECT_EQ(eval_memo::quantize({10.0, 20.0}, 0.0),
              eval_memo::quantize({10.0, 20.0}, 0.0));
}

TEST_F(EvaluatorTest, RebindingRatesClearsExactKeyedMemo) {
    serial_evaluator ev(model, utility_model{});
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    // Same rates: the memo survives, so this is a hit.
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().cache_hits, 1u);
    // Moved rates with quantum 0: the store is invalidated.
    ev.begin_decision({41.0, 40.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().cache_misses, 2u);
}

TEST_F(EvaluatorTest, QuantumKeepsMemoAcrossSmallRateMoves) {
    evaluation_options opts;
    opts.with_rate_quantum(2.0);
    serial_evaluator ev(model, utility_model{}, {}, opts);
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    ev.begin_decision({40.5, 39.8});  // same grid cell ⇒ memo survives
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().cache_hits, 1u);
    EXPECT_EQ(ev.stats().cache_misses, 1u);
}

TEST_F(EvaluatorTest, OptionsAreValidated) {
    EXPECT_THROW(serial_evaluator(model, utility_model{}, {},
                                  evaluation_options{}.with_threads(0)),
                 invariant_error);
    EXPECT_THROW(serial_evaluator(model, utility_model{}, {},
                                  evaluation_options{}.with_memo_capacity(0)),
                 invariant_error);
    EXPECT_THROW(serial_evaluator(model, utility_model{}, {},
                                  evaluation_options{}.with_rate_quantum(-1.0)),
                 invariant_error);
    EXPECT_THROW(eval_memo(0), invariant_error);
}

TEST_F(EvaluatorTest, EvaluateRequiresBoundDecision) {
    serial_evaluator ev(model, utility_model{});
    EXPECT_THROW((void)ev.evaluate(base()), invariant_error);
}

// ---- batch semantics -------------------------------------------------------

TEST_F(EvaluatorTest, BatchMatchesSequentialAndDedupes) {
    serial_evaluator serial(model, utility_model{});
    parallel_evaluator par(model, utility_model{}, {},
                           evaluation_options{}.with_threads(4));
    serial.begin_decision({40.0, 40.0});
    par.begin_decision({40.0, 40.0});

    const std::vector<cluster::configuration> batch = {base(0.4), base(0.5),
                                                       base(0.4), base(0.6)};
    const auto s = serial.evaluate_batch(batch);
    const auto p = par.evaluate_batch(batch);
    ASSERT_EQ(s.size(), batch.size());
    ASSERT_EQ(p.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(s[i].rate, p[i].rate) << i;
        EXPECT_EQ(s[i].power, p[i].power) << i;
        EXPECT_EQ(s[i].response_times, p[i].response_times) << i;
    }
    // The duplicate is solved once and counted as a hit, in both.
    EXPECT_EQ(serial.stats().evaluations, 3u);
    EXPECT_EQ(par.stats().evaluations, 3u);
    EXPECT_EQ(serial.stats().cache_hits, par.stats().cache_hits);
    EXPECT_EQ(serial.stats().cache_misses, par.stats().cache_misses);
    EXPECT_EQ(par.parallelism(), 4u);
    EXPECT_EQ(serial.parallelism(), 1u);
}

TEST_F(EvaluatorTest, IsolatedBatchMatchesSequential) {
    serial_evaluator serial(model, utility_model{});
    parallel_evaluator par(model, utility_model{}, {},
                           evaluation_options{}.with_threads(4));
    serial.begin_decision({40.0, 40.0});
    par.begin_decision({40.0, 40.0});

    std::vector<app_sizing> sizings;
    for (const fraction cap : {0.5, 0.6}) {
        app_sizing s(2);
        for (auto& app : s) app.assign(3, {1, cap});
        sizings.push_back(std::move(s));
    }
    const auto one = serial.evaluate_isolated(sizings[0]);
    const auto two = serial.evaluate_isolated(sizings[1]);
    const auto batch = par.evaluate_isolated_batch(sizings);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].perf_rate, one.perf_rate);
    EXPECT_EQ(batch[0].response_times, one.response_times);
    EXPECT_EQ(batch[1].perf_rate, two.perf_rate);
    EXPECT_EQ(batch[1].response_times, two.response_times);
    // Both engines price the same number of solves.
    EXPECT_EQ(serial.stats().evaluations, par.stats().evaluations);
}

// The pool behind the parallel batches: every index runs exactly once, at
// any batch size, so each result lands in its own slot and matches the
// serial engine's.
TEST_F(EvaluatorTest, ParallelForRunsEveryIndexExactlyOnce) {
    serial_evaluator serial(model, utility_model{});
    parallel_evaluator par(model, utility_model{}, {},
                           evaluation_options{}.with_threads(4));
    serial.begin_decision({40.0, 40.0});
    par.begin_decision({40.0, 40.0});
    std::size_t total = 0;
    for (const std::size_t count : {0u, 1u, 3u, 257u}) {
        // Distinct sizings, so a skipped or repeated index shows as a
        // mismatch in its slot.
        std::vector<app_sizing> sizings;
        for (std::size_t i = 0; i < count; ++i) {
            app_sizing s(2);
            for (auto& app : s) app.assign(3, {1, 0.5});
            s[i % 2][i % 3].cap = 0.2 + 0.6 * static_cast<double>(i) / 257.0;
            sizings.push_back(std::move(s));
        }
        const auto batch = par.evaluate_isolated_batch(sizings);
        ASSERT_EQ(batch.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
            const auto one = serial.evaluate_isolated(sizings[i]);
            EXPECT_EQ(batch[i].response_times, one.response_times)
                << "count " << count << " index " << i;
            EXPECT_EQ(batch[i].perf_rate, one.perf_rate);
        }
        total += count;
        EXPECT_EQ(par.stats().evaluations, total);
    }
}

TEST_F(EvaluatorTest, ParallelForPropagatesExceptions) {
    parallel_evaluator par(model, utility_model{}, {},
                           evaluation_options{}.with_threads(4));
    par.begin_decision({40.0, 40.0});
    std::vector<app_sizing> sizings(64);
    for (auto& s : sizings) {
        s.resize(2);
        for (auto& app : s) app.assign(3, {1, 0.5});
    }
    sizings[13][1][2].replicas = 0;  // a tier without replicas fails validation
    EXPECT_THROW((void)par.evaluate_isolated_batch(sizings), invariant_error);
    // The pool survives a throwing job.
    const std::vector<cluster::configuration> batch = {base(0.3), base(0.4),
                                                       base(0.5)};
    const auto out = par.evaluate_batch(batch);
    ASSERT_EQ(out.size(), batch.size());
    for (const auto& u : out) EXPECT_EQ(u.response_times.size(), 2u);
}

// ---- delta evaluation ------------------------------------------------------

// Exposes the whole-solve reference of the isolated view.
struct isolated_probe : serial_evaluator {
    using serial_evaluator::serial_evaluator;
    using serial_evaluator::compute_isolated;
};

// Perf-Pwr steps caps down by repeated subtraction, so 0.8 − 3·0.05 is a
// few ulps off 0.65 and the two must not share a cache entry. Each is run
// twice, so both the solving and the reusing path meet the reference.
TEST_F(EvaluatorTest, IsolatedReuseKeysCapsByExactBits) {
    isolated_probe ev(model, utility_model{});
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

TEST_F(EvaluatorTest, IsolatedReuseIsOffWithDeltaEvalOff) {
    serial_evaluator ev(model, utility_model{}, {},
                        evaluation_options{}.with_delta_eval(false));
    ev.begin_decision({40.0, 40.0});
    app_sizing s(2);
    for (auto& app : s) app.assign(3, {1, 0.5});
    (void)ev.evaluate_isolated(s);
    (void)ev.evaluate_isolated(s);
    EXPECT_EQ(ev.stats().isolated_solves + ev.stats().isolated_hits, 0u);
    EXPECT_EQ(ev.stats().evaluations, 2u);
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
    EXPECT_NO_THROW((void)make_app_signature(0, 0, dep, inflation));
    fraction stepped = 0.8;
    for (int i = 0; i < 3; ++i) stepped -= 0.05;
    dep.tiers[1].replicas[0].cpu_cap = stepped;
    EXPECT_THROW((void)make_app_signature(0, 0, dep, inflation), invariant_error);

    const std::vector<tier_sizing> tiers(spec.tier_count(), {1, 0.65});
    const auto isolated = make_isolated_signature(0, 40.0, tiers);
    dep.tiers[1].replicas[0].cpu_cap = 0.65;
    EXPECT_NE(isolated.words.front(),
              make_app_signature(0, 0, dep, inflation).words.front());
    // Exact cap bits: the stepped cap keys apart from 0.65.
    std::vector<tier_sizing> stepped_tiers = tiers;
    stepped_tiers[0].cap = stepped;
    EXPECT_NE(make_isolated_signature(0, 40.0, stepped_tiers), isolated);
}

// Delta evaluation must be invisible in the numbers: every field of every
// steady_utility bit-matches the full whole-configuration solve.
TEST_F(EvaluatorTest, DeltaEvaluationIsBitIdenticalToFull) {
    serial_evaluator delta(model, utility_model{}, {},
                           evaluation_options{}.with_delta_eval(true));
    serial_evaluator full(model, utility_model{}, {},
                          evaluation_options{}.with_delta_eval(false));
    delta.begin_decision({40.0, 40.0});
    full.begin_decision({40.0, 40.0});

    std::vector<cluster::configuration> configs = {base(0.3), base(0.4), base(0.6)};
    {
        // A neighbor differing in one app only — the reuse case.
        auto c = base(0.4);
        c.set_cap(model.tier_vms(app_id{0}, 0)[0], 0.5);
        configs.push_back(c);
        // And a migration within the same app.
        auto d = base(0.4);
        d.deploy(model.tier_vms(app_id{1}, 2)[0], host_id{3}, 0.4);
        configs.push_back(d);
    }
    for (const auto& c : configs) {
        const auto a = delta.evaluate(c);
        const auto b = full.evaluate(c);
        EXPECT_EQ(a.rate, b.rate);
        EXPECT_EQ(a.perf_rate, b.perf_rate);
        EXPECT_EQ(a.power_rate, b.power_rate);
        EXPECT_EQ(a.power, b.power);
        EXPECT_EQ(a.response_times, b.response_times);
        EXPECT_EQ(a.candidate, b.candidate);
        EXPECT_EQ(a.meets_targets, b.meets_targets);
    }
    // Reuse actually happened: the one-app neighbors re-solved only the
    // touched app, while the full path paid app_count per configuration.
    EXPECT_LT(delta.stats().app_solves, full.stats().app_solves);
    EXPECT_GT(delta.stats().app_cache_hits, 0u);
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
// seen before, the memo (exact-keyed, cleared on the rate move) misses but
// the app cache still holds that level's sub-solves.
TEST_F(EvaluatorTest, AppCachePersistsAcrossDecisions) {
    serial_evaluator ev(model, utility_model{});
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    ev.begin_decision({50.0, 50.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 4u);

    ev.begin_decision({40.0, 40.0});  // back to the first level
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().cache_misses, 3u);  // memo was invalidated…
    EXPECT_EQ(ev.stats().app_solves, 4u);    // …but no new sub-solves
    EXPECT_EQ(ev.stats().app_cache_hits, 2u);

    ev.reset_memo();
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base());
    EXPECT_EQ(ev.stats().app_solves, 2u);  // reset_memo cleared the app cache
}

TEST_F(EvaluatorTest, DeltaOffChargesFullSolvesAndNeverProbesAppCache) {
    serial_evaluator ev(model, utility_model{}, {},
                        evaluation_options{}.with_delta_eval(false));
    ev.begin_decision({40.0, 40.0});
    (void)ev.evaluate(base(0.4));
    (void)ev.evaluate(base(0.5));
    EXPECT_EQ(ev.stats().app_solves, 4u);  // app_count per configuration
    EXPECT_EQ(ev.stats().app_cache_hits, 0u);
    EXPECT_EQ(ev.stats().app_cache_misses, 0u);
}

// Parallel delta batches: bit-identical values and identical sub-solve
// accounting versus the serial delta path, duplicates included.
TEST_F(EvaluatorTest, ParallelDeltaBatchMatchesSerial) {
    serial_evaluator serial(model, utility_model{});
    parallel_evaluator par(model, utility_model{}, {},
                           evaluation_options{}.with_threads(4));
    serial.begin_decision({40.0, 40.0});
    par.begin_decision({40.0, 40.0});

    std::vector<cluster::configuration> batch = {base(0.4), base(0.5), base(0.4)};
    auto neighbor = base(0.4);
    neighbor.set_cap(model.tier_vms(app_id{1}, 0)[0], 0.6);
    batch.push_back(neighbor);

    const auto s = serial.evaluate_batch(batch);
    const auto p = par.evaluate_batch(batch);
    ASSERT_EQ(s.size(), p.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(s[i].rate, p[i].rate) << i;
        EXPECT_EQ(s[i].power, p[i].power) << i;
        EXPECT_EQ(s[i].response_times, p[i].response_times) << i;
    }
    EXPECT_EQ(serial.stats().app_solves, par.stats().app_solves);
    EXPECT_EQ(serial.stats().app_cache_hits, par.stats().app_cache_hits);
    EXPECT_EQ(serial.stats().app_cache_misses, par.stats().app_cache_misses);
    EXPECT_GT(par.stats().app_cache_hits, 0u);
}

TEST_F(EvaluatorTest, QuantizeRejectsNegativeAndNaNRates) {
    EXPECT_THROW((void)eval_memo::quantize({-1.0}, 0.0), invariant_error);
    EXPECT_THROW((void)eval_memo::quantize({40.0, -0.5}, 2.0), invariant_error);
    EXPECT_THROW(
        (void)eval_memo::quantize({std::numeric_limits<double>::quiet_NaN()}, 0.0),
        invariant_error);
    EXPECT_THROW(
        (void)eval_memo::quantize({std::numeric_limits<double>::infinity()}, 1.0),
        invariant_error);
    // Zero is a legitimate rate (an idle application), in both key modes.
    EXPECT_EQ(eval_memo::quantize({0.0}, 0.0).size(), 1u);
    EXPECT_EQ(eval_memo::quantize({0.0}, 2.0).size(), 1u);
    EXPECT_THROW(serial_evaluator(model, utility_model{}, {},
                                  evaluation_options{}.with_app_cache_capacity(0)),
                 invariant_error);
}

// ---- search determinism ----------------------------------------------------

// The parallel evaluator must not change a single decision: same actions,
// bit-identical expected utility, across scenarios and workload points.
TEST_F(EvaluatorTest, ParallelSearchIsBitIdenticalToSerial) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto scn = make_rubis_scenario(
            {.host_count = 8, .app_count = 4, .seed = seed});

        search_options serial_opts;
        search_options parallel_opts;
        parallel_opts.evaluation.with_threads(4);
        adaptation_search serial(scn.model, utility_model{},
                                 cost::cost_table::paper_defaults(), serial_opts);
        adaptation_search parallel(scn.model, utility_model{},
                                   cost::cost_table::paper_defaults(),
                                   parallel_opts);

        for (const seconds t : {0.0, 1800.0, 3600.0}) {
            std::vector<req_per_sec> rates;
            for (const auto& tr : scn.traces) {
                rates.push_back(tr.mean_rate(t, t + 120.0));
            }
            model_clock_meter m1, m2;
            const auto rs = serial.find(scn.initial, rates, 600.0, 0.0, m1);
            const auto rp = parallel.find(scn.initial, rates, 600.0, 0.0, m2);
            EXPECT_EQ(rs.actions, rp.actions) << "seed " << seed << " t " << t;
            EXPECT_EQ(rs.expected_utility, rp.expected_utility);
            EXPECT_EQ(rs.ideal_utility, rp.ideal_utility);
            EXPECT_EQ(rs.target, rp.target);
            EXPECT_EQ(rs.stats.expansions, rp.stats.expansions);
            EXPECT_EQ(rs.stats.generated, rp.stats.generated);
            EXPECT_EQ(rs.stats.duration, rp.stats.duration);
        }
    }
}

// The search reports the engine's per-decision cache effectiveness.
TEST_F(EvaluatorTest, SearchStatsExposeCacheCounters) {
    adaptation_search search(model, utility_model{},
                             cost::cost_table::paper_defaults(), {});
    model_clock_meter meter;
    const auto r = search.find(base(), {40.0, 40.0}, 600.0, 0.0, meter);
    EXPECT_GT(r.stats.eval_cache_misses, 0u);
    EXPECT_GT(r.stats.eval_cache_hits, 0u);
}

}  // namespace
}  // namespace mistral::core
