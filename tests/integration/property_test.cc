// Property tests: randomized sweeps over the state space.
//
// These tests exercise invariants that must hold for *every* reachable
// state, not just the handful of hand-built fixtures: action closure
// (applicable actions keep configurations structurally valid), planner
// connectivity (any two reachable configurations are connected by an
// executable plan), queueing monotonicity over a parameter grid, and the
// testbed's accounting identities.
#include <gtest/gtest.h>

#include "apps/rubis.h"
#include "cluster/translate.h"
#include "common/rng.h"
#include "core/planner.h"
#include "sim/testbed.h"
#include "test_fixtures.h"

namespace mistral {
namespace {

using test_support::make_model;
using test_support::base_config;

// Random walk over enumerated actions; every visited configuration must be
// structurally valid, and exact replay must reproduce it.
TEST(Property, RandomActionWalksPreserveStructuralValidity) {
    const auto model = make_model(4, 2);
    rng r(2026);
    for (int walk = 0; walk < 10; ++walk) {
        auto config = base_config(model);
        for (int step = 0; step < 40; ++step) {
            const auto actions = enumerate_actions(model, config);
            ASSERT_FALSE(actions.empty());
            const auto& a = actions[r.uniform_index(actions.size())];
            config = apply(model, config, a);
            std::string why;
            ASSERT_TRUE(structurally_valid(model, config, &why))
                << "walk " << walk << " step " << step << " after "
                << to_string(model, a) << ": " << why;
        }
    }
}

TEST(Property, ApplyIsDeterministicAndHashConsistent) {
    const auto model = make_model(4, 2);
    rng r(7);
    auto config = base_config(model);
    for (int step = 0; step < 60; ++step) {
        const auto actions = enumerate_actions(model, config);
        const auto& a = actions[r.uniform_index(actions.size())];
        const auto once = apply(model, config, a);
        const auto twice = apply(model, config, a);
        ASSERT_EQ(once, twice);
        ASSERT_EQ(once.hash(), twice.hash());
        config = once;
    }
}

// The planner must connect any two configurations reached by random walks,
// with every prefix applicable and the goal's per-tier replica counts and
// host set realized.
TEST(Property, PlannerConnectsRandomReachableConfigurations) {
    const auto model = make_model(4, 2);
    rng r(99);
    for (int trial = 0; trial < 8; ++trial) {
        auto from = base_config(model);
        auto to = base_config(model);
        for (int step = 0; step < 25; ++step) {
            const auto af = enumerate_actions(model, from);
            from = apply(model, from, af[r.uniform_index(af.size())]);
            const auto at = enumerate_actions(model, to);
            to = apply(model, to, at[r.uniform_index(at.size())]);
        }
        const auto plan = core::plan_transition(model, from, to);
        cluster::configuration cur = from;
        for (const auto& a : plan) {
            std::string why;
            ASSERT_TRUE(applicable(model, cur, a, &why))
                << trial << ": " << to_string(model, a) << ": " << why;
            cur = apply(model, cur, a);
        }
        std::string why;
        EXPECT_TRUE(structurally_valid(model, cur, &why)) << why;
    }
}

// LQN monotonicity over a (rate, cap) grid: response time rises with rate
// and falls with cap, everywhere.
class LqnGrid : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LqnGrid, ResponseMonotoneInRateAndCap) {
    const auto [rate, cap] = GetParam();
    const auto spec = apps::rubis_browsing("r");
    auto deploy = [&](double rr, double cc) {
        lqn::app_deployment dep;
        dep.spec = &spec;
        dep.rate = rr;
        dep.tiers.resize(3);
        for (std::size_t t = 0; t < 3; ++t) dep.tiers[t].replicas.push_back({t, cc});
        return lqn::solve({dep}, 3).apps[0].mean_response_time;
    };
    const double here = deploy(rate, cap);
    EXPECT_LE(deploy(rate * 0.8, cap), here + 1e-9);
    EXPECT_GE(deploy(rate * 1.2, cap), here - 1e-9);
    EXPECT_GE(deploy(rate, std::max(0.2, cap - 0.1)), here - 1e-9);
    EXPECT_LE(deploy(rate, std::min(0.8, cap + 0.1)), here + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LqnGrid,
    ::testing::Combine(::testing::Values(10.0, 25.0, 40.0, 55.0, 70.0),
                       ::testing::Values(0.3, 0.4, 0.6, 0.8)));

// Power model monotonicity across calibration exponents. On the physical
// calibration range r ∈ [1, 2] the curve 2ρ − ρ^r is monotone and stays
// within [idle, busy]; outside it the empirical form legitimately
// misbehaves — r > 2 overshoots `busy` mid-range and r < 1 dips below
// `idle` at low load — so the bounded property is asserted on [1, 2] only
// and the edge behaviours are pinned separately.
class PowerGrid : public ::testing::TestWithParam<double> {};

TEST_P(PowerGrid, PowerMonotoneAndBounded) {
    pwr::host_power_model m;
    m.r = GetParam();
    double prev = m.idle - 1.0;
    for (double rho = 0.0; rho <= 1.0 + 1e-9; rho += 0.05) {
        const double p = m.power(rho);
        EXPECT_GT(p, prev);
        EXPECT_GE(p, m.idle - 1e-9);
        EXPECT_LE(p, m.busy + 1e-9);
        prev = p;
    }
}

INSTANTIATE_TEST_SUITE_P(Exponents, PowerGrid,
                         ::testing::Values(1.0, 1.2, 1.4, 1.7, 2.0));

TEST(PowerGridEdge, LargeExponentOvershootsBusyMidRange) {
    pwr::host_power_model m;
    m.r = 3.5;
    double peak = 0.0;
    for (double rho = 0.0; rho <= 1.0 + 1e-9; rho += 0.01) {
        peak = std::max(peak, m.power(rho));
    }
    EXPECT_GT(peak, m.busy);                 // the documented overshoot
    EXPECT_NEAR(m.power(1.0), m.busy, 1e-9);  // but it lands back on busy
}

// Testbed accounting identities: observation windows tile time exactly and
// adapting fractions stay in [0, 1].
TEST(Property, TestbedObservationAccounting) {
    const auto model = make_model(3, 1);
    auto config = base_config(model);
    sim::testbed tb(model, config, {});
    tb.submit({cluster::migrate{model.tier_vms(app_id{0}, 2)[0], host_id{0}}});
    seconds clock = 0.0;
    rng r(5);
    for (int i = 0; i < 30; ++i) {
        const seconds dt = r.uniform(5.0, 180.0);
        const auto obs = tb.advance(dt, {40.0});
        clock += dt;
        ASSERT_NEAR(obs.time, clock, 1e-9);
        ASSERT_NEAR(obs.window, dt, 1e-9);
        ASSERT_GE(obs.adapting_fraction, 0.0);
        ASSERT_LE(obs.adapting_fraction, 1.0 + 1e-9);
        ASSERT_GT(obs.power, 0.0);
        for (double rt : obs.response_time) ASSERT_GE(rt, 0.0);
    }
    EXPECT_FALSE(tb.busy());
}

// Prediction consistency: the translate-layer power equals re-applying the
// host power models to the solver's utilizations, for random configurations.
TEST(Property, PredictionPowerConsistency) {
    const auto model = make_model(4, 2);
    rng r(31);
    auto config = base_config(model);
    for (int step = 0; step < 20; ++step) {
        const auto actions = enumerate_actions(model, config);
        config = apply(model, config, actions[r.uniform_index(actions.size())]);
        const std::vector<req_per_sec> rates = {r.uniform(0.0, 90.0),
                                                r.uniform(0.0, 90.0)};
        const auto pred = cluster::predict(model, config, rates);
        EXPECT_NEAR(pred.power,
                    predicted_power(model, config, pred.perf.host_utilization),
                    1e-9);
    }
}

}  // namespace
}  // namespace mistral
