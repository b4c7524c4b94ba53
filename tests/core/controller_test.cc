#include "core/controller.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "apps/rubis.h"
#include "cluster/action.h"
#include "sim/cost_campaign.h"

namespace mistral::core {
namespace {

struct fixture : ::testing::Test {
    cluster::cluster_model model = [] {
        std::vector<apps::application_spec> specs;
        specs.push_back(apps::rubis_browsing("R0"));
        specs.push_back(apps::rubis_browsing("R1"));
        return cluster::cluster_model(cluster::uniform_hosts(4), std::move(specs));
    }();

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

    mistral_controller make(controller_options opts = {}) {
        return mistral_controller(model, cost::cost_table::paper_defaults(), opts);
    }
};

using ControllerTest = fixture;

TEST_F(ControllerTest, FirstStepAlwaysInvokesOptimizer) {
    auto ctl = make();
    const auto d = ctl.step({0.0, {50.0, 50.0}, base(), 0.0});
    EXPECT_TRUE(d.invoked);
    EXPECT_GE(d.control_window, ctl.options().min_control_window);
}

TEST_F(ControllerTest, QuietWhileWorkloadInBand) {
    auto ctl = make();
    ctl.step({0.0, {50.0, 50.0}, base(), 0.0});
    const auto d = ctl.step({120.0, {52.0, 49.0}, base(), 1.0});
    EXPECT_FALSE(d.invoked);
    EXPECT_TRUE(d.actions.empty());
}

TEST_F(ControllerTest, InvokesWhenBandExceeded) {
    auto ctl = make();
    ctl.step({0.0, {50.0, 50.0}, base(), 0.0});
    const auto d = ctl.step({240.0, {65.0, 50.0}, base(), 1.0});
    EXPECT_TRUE(d.invoked);
}

TEST_F(ControllerTest, ZeroBandTriggersEveryChange) {
    controller_options opts;
    opts.band_width = 0.0;
    auto ctl = make(opts);
    ctl.step({0.0, {50.0, 50.0}, base(), 0.0});
    EXPECT_TRUE(ctl.step({120.0, {50.1, 50.0}, base(), 1.0}).invoked);
}

TEST_F(ControllerTest, StabilityIntervalsFeedArmaPredictors) {
    auto ctl = make();
    ctl.step({0.0, {50.0, 50.0}, base(), 0.0});
    ctl.step({240.0, {70.0, 50.0}, base(), 1.0});   // app 0 exits after 240 s
    EXPECT_EQ(ctl.predictors()[0].measurements().size(), 1u);
    EXPECT_DOUBLE_EQ(ctl.predictors()[0].measurements()[0], 240.0);
    EXPECT_TRUE(ctl.predictors()[1].measurements().empty());
}

TEST_F(ControllerTest, ControlWindowWithinConfiguredBounds) {
    auto ctl = make();
    seconds t = 0.0;
    auto cfg = base();
    for (int i = 0; i < 10; ++i) {
        const auto d = ctl.step({t, {50.0 + 15.0 * (i % 2), 50.0}, cfg, 1.0});
        if (d.invoked) {
            EXPECT_GE(d.control_window, ctl.options().min_control_window);
            EXPECT_LE(d.control_window, ctl.options().max_control_window);
        }
        t += 120.0;
    }
}

TEST_F(ControllerTest, DecisionStatsAreMetered) {
    auto ctl = make();
    const auto d = ctl.step({0.0, {50.0, 50.0}, base(), 0.0});
    ASSERT_TRUE(d.invoked);
    EXPECT_GT(d.stats.expansions, 0u);
    EXPECT_GT(d.stats.duration, 0.0);
    EXPECT_GT(d.stats.search_power_cost, 0.0);
}

TEST_F(ControllerTest, ActionsAreApplicableFromGivenConfiguration) {
    auto ctl = make();
    auto cfg = base();
    const auto d = ctl.step({0.0, {30.0, 30.0}, cfg, 0.0});
    for (const auto& a : d.actions) {
        std::string why;
        ASSERT_TRUE(applicable(model, cfg, a, &why)) << why;
        cfg = apply(model, cfg, a);
    }
    std::string why;
    EXPECT_TRUE(is_candidate(model, cfg, &why)) << why;
}

TEST_F(ControllerTest, UtilityHistoryShapesExpectedBudget) {
    // With a deeply negative utility history, UH is negative and pruning
    // starts immediately; decisions still come back valid.
    auto ctl = make();
    auto cfg = base();
    ctl.step({0.0, {50.0, 50.0}, cfg, 0.0});
    const auto d = ctl.step({240.0, {80.0, 50.0}, cfg, -10.0});
    EXPECT_TRUE(d.invoked);
}

TEST_F(ControllerTest, RejectsWrongRateCount) {
    auto ctl = make();
    EXPECT_THROW(ctl.step({0.0, {50.0}, base(), 0.0}), invariant_error);
}

// ---- fallback decision ladder ----------------------------------------------

TEST_F(ControllerTest, GarbageTelemetryDemotesToGreedyAndCapsThePlan) {
    auto ctl = make();
    ctl.step({0.0, {50.0, 50.0}, base(), 0.0});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto d = ctl.step({120.0, {nan, 50.0}, base(), 1.0});
    EXPECT_EQ(d.telemetry_quality, wl::window_quality::garbage);
    EXPECT_EQ(d.mode, control_mode::greedy);
    // The NaN was substituted with the last healthy reading (50, in band):
    // no trigger, and nothing NaN reached the monitor.
    EXPECT_FALSE(d.invoked);
    EXPECT_DOUBLE_EQ(ctl.monitor().band_of(0).center, 50.0);
    EXPECT_EQ(ctl.degraded().demotions, 1);
    EXPECT_EQ(ctl.degraded().garbage_windows, 1);
    EXPECT_EQ(ctl.degraded().degraded_windows, 1);

    // Hysteresis: one clean step does not promote, and a band exit while on
    // the greedy rung plans at most a single action.
    const auto d2 = ctl.step({240.0, {80.0, 50.0}, base(), 1.0});
    EXPECT_EQ(d2.mode, control_mode::greedy);
    EXPECT_TRUE(d2.invoked);
    EXPECT_LE(d2.actions.size(), 1u);
    EXPECT_EQ(ctl.degraded().greedy_decisions, 1);
}

TEST_F(ControllerTest, PromotionClimbsOneRungAfterConsecutiveCleanSteps) {
    controller_options opts;
    opts.degraded.promote_after = 2;
    auto ctl = make(opts);
    ctl.step({0.0, {50.0, 50.0}, base(), 0.0});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    ctl.step({120.0, {nan, 50.0}, base(), 1.0});
    ASSERT_EQ(ctl.mode(), control_mode::greedy);
    ctl.step({240.0, {50.0, 50.0}, base(), 1.0});  // clean step 1
    EXPECT_EQ(ctl.mode(), control_mode::greedy);
    const auto d = ctl.step({360.0, {50.0, 50.0}, base(), 1.0});  // clean step 2
    EXPECT_EQ(ctl.mode(), control_mode::full);
    EXPECT_EQ(d.mode, control_mode::full);
    EXPECT_EQ(ctl.degraded().promotions, 1);

    // Another garbage window demotes again and resets the streak.
    ctl.step({480.0, {nan, 50.0}, base(), 1.0});
    EXPECT_EQ(ctl.mode(), control_mode::greedy);
    EXPECT_EQ(ctl.degraded().demotions, 2);
}

TEST_F(ControllerTest, EmptyObservationWindowIsDegradedNeverNaN) {
    auto ctl = make();
    ctl.step({0.0, {50.0, 50.0}, base(), 0.0});
    decision_input in{120.0, {0.0, 50.0}, base(), 1.0};
    in.samples = {0.0, 6000.0};  // app 0 completed zero requests
    const auto d = ctl.step(in);
    EXPECT_EQ(d.telemetry_quality, wl::window_quality::degraded);
    EXPECT_EQ(d.mode, control_mode::greedy);
    EXPECT_FALSE(d.invoked);  // substituted last-healthy rate stays in band
    EXPECT_DOUBLE_EQ(ctl.monitor().band_of(0).center, 50.0);
    EXPECT_EQ(ctl.degraded().garbage_windows, 0);
}

TEST_F(ControllerTest, UntrustedPredictorHoldsConfigurationOnTriggers) {
    controller_options opts;
    opts.arma.divergence.slack = 0.1;
    opts.arma.divergence.soft_threshold = 0.5;
    opts.arma.divergence.hard_threshold = 1.0;
    opts.arma.divergence.error_floor = 1.0;
    auto ctl = make(opts);
    const auto cfg = base();
    seconds t = 0.0;
    ctl.step({t, {50.0, 50.0}, cfg, 0.0});
    // Alternating stability intervals (120 s / 600 s) keep the one-step blend
    // wrong by most of the amplitude: the CUSUM guard must declare app 0's
    // predictor untrusted, and the ladder must answer the trigger by holding.
    controller_decision last;
    bool high = true;
    int i = 0;
    while (ctl.mode() != control_mode::hold && i < 40) {
        t += (i % 2 == 0) ? 120.0 : 600.0;
        last = ctl.step({t, {high ? 80.0 : 50.0, 50.0}, cfg, 1.0});
        high = !high;
        ++i;
    }
    ASSERT_EQ(ctl.mode(), control_mode::hold) << "predictor never diverged";
    EXPECT_FALSE(ctl.predictors()[0].trusted());
    // The demoting step carried a genuine band trigger, answered by holding:
    // no plan was emitted while the predictor is untrusted.
    EXPECT_EQ(last.mode, control_mode::hold);
    EXPECT_FALSE(last.invoked);
    EXPECT_TRUE(last.actions.empty());
    EXPECT_GE(last.control_window, ctl.options().min_control_window);
    EXPECT_GE(ctl.degraded().held_triggers, 1);
    EXPECT_GE(ctl.degraded().demotions, 1);

    // Holding re-centers the bands, so a steady workload stays quiet.
    t += 120.0;
    const auto quiet = ctl.step({t, {high ? 80.0 : 50.0, 50.0}, cfg, 1.0});
    EXPECT_FALSE(quiet.invoked);
}

TEST_F(ControllerTest, StructuralRepairStillRunsWhileHolding) {
    controller_options opts;
    opts.arma.divergence.slack = 0.1;
    opts.arma.divergence.soft_threshold = 0.5;
    opts.arma.divergence.hard_threshold = 1.0;
    opts.arma.divergence.error_floor = 1.0;
    auto ctl = make(opts);
    const auto cfg = base();
    seconds t = 0.0;
    ctl.step({t, {50.0, 50.0}, cfg, 0.0});
    bool high = true;
    int i = 0;
    while (ctl.mode() != control_mode::hold && i < 40) {
        t += (i % 2 == 0) ? 120.0 : 600.0;
        ctl.step({t, {high ? 80.0 : 50.0, 50.0}, cfg, 1.0});
        high = !high;
        ++i;
    }
    ASSERT_EQ(ctl.mode(), control_mode::hold);

    // Knock a tier below its replica minimum: the repair path is a fenced
    // safety action and must run even on the hold rung.
    auto broken = cfg;
    broken.undeploy(model.tier_vms(app_id{0}, 0)[0]);
    ASSERT_FALSE(cluster::structurally_valid(model, broken));
    t += 120.0;
    const auto d = ctl.step({t, {50.0, 50.0}, broken, 1.0});
    EXPECT_TRUE(d.invoked);
    EXPECT_TRUE(d.repair);
    EXPECT_FALSE(d.actions.empty());
    EXPECT_EQ(ctl.mode(), control_mode::hold);  // repair does not promote
}

// A measured campaign table has no add_replica sample for the fixed-size web
// tier. When a host crash takes a web replica, the repair re-adds it; if that
// add is aborted, the next step prices the failed action for the wasted-
// adaptation ledger, which must fall back to another tier's add_replica
// samples instead of throwing, and repair again.
TEST_F(ControllerTest, CampaignTableRepairsAWebReplicaLostToAHostCrash) {
    sim::campaign_options copts;
    copts.workloads = {25.0, 50.0};
    copts.trials = 1;
    const auto table =
        sim::run_cost_campaign(apps::rubis_browsing("campaign"), copts);
    ASSERT_FALSE(table.has(cluster::action_kind::add_replica, 0));
    mistral_controller ctl(model, table, {});
    const auto cfg = base();
    (void)ctl.step({0.0, {50.0, 50.0}, cfg, 0.0});

    // base() puts app 0's web and database VMs on host 0; crash it.
    const host_id down{0};
    const vm_id web = model.tier_vms(app_id{0}, 0)[0];
    auto crashed = cfg;
    for (const vm_id vm : crashed.vms_on(down)) crashed.undeploy(vm);
    crashed.set_host_failed(down, true);
    ASSERT_FALSE(cluster::structurally_valid(model, crashed));
    decision_input in{120.0, {50.0, 50.0}, crashed, 1.0};
    in.hosts_failed = {down.value};
    const auto repair = ctl.step(in);
    ASSERT_TRUE(repair.repair);
    std::vector<cluster::action> web_adds;
    for (const auto& a : repair.actions) {
        const auto* add = std::get_if<cluster::add_replica>(&a);
        if (add != nullptr && add->vm == web) web_adds.push_back(a);
    }
    ASSERT_EQ(web_adds.size(), 1u);

    // The re-add was aborted: the web VM is still down.
    decision_input retry{240.0, {50.0, 50.0}, crashed, 1.0};
    retry.failed = web_adds;
    controller_decision d;
    ASSERT_NO_THROW(d = ctl.step(retry));
    EXPECT_TRUE(d.repair);
    auto after = crashed;
    for (const auto& a : d.actions) {
        ASSERT_TRUE(cluster::applicable(model, after, a)) << cluster::to_string(model, a);
        after = cluster::apply(model, after, a);
    }
    EXPECT_TRUE(cluster::structurally_valid(model, after));
    EXPECT_GT(ctl.reconciliation().wasted_adaptation_time, 0.0);
}

TEST_F(ControllerTest, BlownSearchDeadlineDemotesNextStepToGreedy) {
    controller_options opts;
    opts.degraded.search_deadline_fraction = 1e-9;  // any metered search trips
    auto ctl = make(opts);
    const auto d0 = ctl.step({0.0, {50.0, 50.0}, base(), 0.0});
    EXPECT_TRUE(d0.invoked);
    EXPECT_EQ(d0.mode, control_mode::full);  // the watchdog feeds the NEXT step
    const auto d1 = ctl.step({240.0, {80.0, 50.0}, base(), 1.0});
    EXPECT_EQ(d1.mode, control_mode::greedy);
    EXPECT_TRUE(d1.invoked);
    EXPECT_LE(d1.actions.size(), 1u);
    EXPECT_GE(ctl.degraded().deadline_trips, 1);
}

TEST_F(ControllerTest, DegradedSubsystemIsInertOnHealthyInputs) {
    controller_options off;
    off.degraded.enabled = false;
    auto with_guard = make();  // degraded-mode on by default
    auto without_guard = make(off);
    const std::vector<std::vector<req_per_sec>> steps = {
        {50.0, 50.0}, {52.0, 49.0}, {65.0, 50.0}, {60.0, 58.0},
        {40.0, 70.0}, {41.0, 69.0}, {90.0, 20.0}, {88.0, 22.0},
    };
    seconds t = 0.0;
    for (const auto& rates : steps) {
        const auto a = with_guard.step({t, rates, base(), 1.0});
        const auto b = without_guard.step({t, rates, base(), 1.0});
        ASSERT_EQ(a.invoked, b.invoked) << "t=" << t;
        ASSERT_EQ(a.actions.size(), b.actions.size()) << "t=" << t;
        for (std::size_t i = 0; i < a.actions.size(); ++i) {
            ASSERT_EQ(cluster::to_string(model, a.actions[i]),
                      cluster::to_string(model, b.actions[i]));
        }
        // Bit-exact utilities and windows: the subsystem never perturbed the
        // pipeline on clean telemetry.
        std::uint64_t ua = 0, ub = 0;
        std::memcpy(&ua, &a.expected_utility, sizeof ua);
        std::memcpy(&ub, &b.expected_utility, sizeof ub);
        ASSERT_EQ(ua, ub) << "t=" << t;
        ASSERT_EQ(a.control_window, b.control_window) << "t=" << t;
        ASSERT_EQ(a.mode, control_mode::full);
        ASSERT_EQ(a.telemetry_quality, wl::window_quality::healthy);
        t += 120.0;
    }
    EXPECT_EQ(with_guard.degraded().demotions, 0);
    EXPECT_EQ(with_guard.degraded().degraded_windows, 0);
}

}  // namespace
}  // namespace mistral::core
