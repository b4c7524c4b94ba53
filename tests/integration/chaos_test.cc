// Control-plane chaos harness (DESIGN.md §16): quarantine hysteresis, budget
// conservation under quarantine, a randomized crash/hang/restart soak
// asserting the invariants that must survive any fault schedule, and the
// warm-restart byte-identity proofs (fault-free and host-fault-injected).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "apps/rubis.h"
#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/snapshot.h"
#include "obs/journal.h"
#include "sim/faults.h"
#include "workload/generators.h"

namespace mistral::core {
namespace {

std::int64_t milliwatts(watts w) { return std::llround(w * 1000.0); }

struct ChaosTest : ::testing::Test {
    cluster::cluster_model model = [] {
        std::vector<apps::application_spec> specs;
        specs.push_back(apps::rubis_browsing("A"));
        specs.push_back(apps::rubis_browsing("B"));
        return cluster::cluster_model(cluster::uniform_hosts(6),
                                      std::move(specs));
    }();
    cost::cost_table costs = cost::cost_table::paper_defaults();

    partition halves() const {
        return partition(model, {{0, {0, 1, 2}}, {1, {3, 4, 5}}});
    }

    // Each application on its own pod's hosts.
    cluster::configuration split() const {
        cluster::configuration c(model.vm_count(), model.host_count());
        for (std::int32_t h = 0; h < 6; ++h) c.set_host_power(host_id{h}, true);
        for (std::size_t t = 0; t < 3; ++t) {
            c.deploy(model.tier_vms(app_id{0}, t)[0],
                     host_id{static_cast<std::int32_t>(t)}, 0.3);
            c.deploy(model.tier_vms(app_id{1}, t)[0],
                     host_id{static_cast<std::int32_t>(3 + t)}, 0.3);
        }
        return c;
    }
};

// A pod that crashes every other interval must never leave quarantine: the
// hysteresis counter resets on every fault, so readmission requires
// `readmit_after` *consecutive* clean intervals.
TEST_F(ChaosTest, FlappingPodNeverOscillatesOutOfQuarantine) {
    obs::memory_sink sink;
    controller_builder builder;
    builder.sink(&sink);
    int interval = 0;
    coordinator_options opts;
    opts.migration_broker = false;
    opts.readmit_after = 3;
    opts.pod_fault_hook = [&interval](std::size_t pod) {
        pod_step_fault f;
        f.crashed = (pod == 1 && interval % 2 == 0);
        return f;
    };
    global_coordinator coord(model, costs, halves(), builder, opts);

    auto cfg = split();
    seconds t = 0.0;
    for (interval = 0; interval < 20; ++interval) {
        const auto out = coord.decide(
            {t, {40.0 + 2.0 * interval, 35.0}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = apply(model, cfg, a);
        ASSERT_EQ(coord.health().size(), 2u);
        EXPECT_FALSE(coord.health()[0].quarantined);
        EXPECT_TRUE(coord.health()[1].quarantined) << "interval " << interval;
        t += 120.0;
    }
    std::size_t enters = 0, exits = 0;
    for (const auto& e : sink.events()) {
        if (e.type != "pod_quarantine") continue;
        (e.find("action")->text == "enter" ? enters : exits) += 1;
    }
    EXPECT_EQ(enters, 1u);  // re-crashes inside quarantine do not re-enter
    EXPECT_EQ(exits, 0u);   // flapping never satisfies the hysteresis
}

// One crash, then sustained health: the pod is re-admitted after exactly
// `readmit_after` consecutive clean intervals and decides again afterwards.
TEST_F(ChaosTest, SingleCrashIsReadmittedAfterTheHysteresisWindow) {
    obs::memory_sink sink;
    controller_builder builder;
    builder.sink(&sink);
    int interval = 0;
    coordinator_options opts;
    opts.migration_broker = false;
    opts.readmit_after = 3;
    opts.pod_fault_hook = [&interval](std::size_t pod) {
        pod_step_fault f;
        f.crashed = (pod == 1 && interval == 0);
        return f;
    };
    global_coordinator coord(model, costs, halves(), builder, opts);

    auto cfg = split();
    seconds t = 0.0;
    std::vector<bool> quarantined;
    for (interval = 0; interval < 8; ++interval) {
        const auto out = coord.decide({t, {40.0, 35.0}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = apply(model, cfg, a);
        quarantined.push_back(coord.health()[1].quarantined);
        t += 120.0;
    }
    // Quarantined at the crash and for the three clean intervals the
    // hysteresis demands; free from the fourth interval on.
    EXPECT_EQ(quarantined,
              (std::vector<bool>{true, true, true, false, false, false, false,
                                 false}));
    std::size_t exits = 0;
    for (const auto& e : sink.events()) {
        if (e.type == "pod_quarantine" && e.find("action")->text == "exit") {
            ++exits;
        }
    }
    EXPECT_EQ(exits, 1u);
}

// The budget broker must keep conserving the cluster budget to the milliwatt
// while a pod is quarantined — a held pod still draws power, so it still
// receives its demand-proportional share (and at minimum the 1 mW floor).
TEST_F(ChaosTest, QuarantinedPodsStillReceiveConservedBudgets) {
    coordinator_options opts;
    opts.power_budget = 700.0;
    opts.migration_broker = false;
    opts.pod_fault_hook = [](std::size_t pod) {
        pod_step_fault f;
        f.crashed = (pod == 1);  // permanently crashed
        return f;
    };
    global_coordinator coord(model, costs, halves(), {}, opts);

    auto cfg = split();
    seconds t = 0.0;
    for (int i = 0; i < 10; ++i) {
        const auto out = coord.decide({t, {40.0 + 5.0 * i, 35.0}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = apply(model, cfg, a);
        ASSERT_EQ(coord.budgets().size(), 2u);
        std::int64_t sum = 0;
        for (const watts b : coord.budgets()) sum += milliwatts(b);
        EXPECT_EQ(sum, milliwatts(opts.power_budget)) << "interval " << i;
        EXPECT_GE(milliwatts(coord.budgets()[1]), 1) << "interval " << i;
        t += 120.0;
    }
    EXPECT_TRUE(coord.health()[1].quarantined);
}

// Randomized soak: crashes, hangs, a tight decision deadline, scheduled
// coordinator restarts, and checkpoints all at once, for 60 intervals. The
// run must stay crash-free while conserving the budget every interval,
// keeping app ownership consistent (each app owned by exactly one pod or
// parked stray), and emitting only applicable actions.
TEST_F(ChaosTest, RandomizedSoakHoldsTheInvariants) {
    sim::control_fault_options fopts;
    fopts.crash_probability = 0.15;
    fopts.hang_probability = 0.2;
    fopts.hang_multiplier = 6.0;
    fopts.coordinator_restarts = {900.0, 3000.0, 5100.0};
    sim::control_fault_injector injector(fopts, 0xC4A05u);

    coordinator_options opts;
    opts.power_budget = 700.0;
    opts.readmit_after = 2;
    opts.pod_deadline = 1.5;
    opts.migration_timeout_intervals = 2;
    opts.donor_pressure = 0.5;  // keep the broker busy under churn
    opts.accept_pressure = 0.6;
    opts.pod_fault_hook = [&injector](std::size_t pod) {
        const auto f = injector.on_pod_step(pod);
        return pod_step_fault{f.crashed, f.hang_multiplier};
    };

    restart_options ropts;
    ropts.checkpoint_every = 7;
    ropts.restart_at = fopts.coordinator_restarts;
    restartable_coordinator coord(
        [&] {
            return std::make_unique<global_coordinator>(model, costs, halves(),
                                                        controller_builder{},
                                                        opts);
        },
        ropts);

    auto cfg = split();
    seconds t = 0.0;
    for (int i = 0; i < 60; ++i) {
        const double rate = 45.0 + 35.0 * std::sin(0.3 * i);
        const auto out = coord.decide({t, {rate, rate * 0.7}, cfg, 1.0});
        // Every emitted action must compose applicably onto the live config.
        for (const auto& a : out.actions) {
            std::string why;
            ASSERT_TRUE(applicable(model, cfg, a, &why))
                << "interval " << i << ": " << to_string(model, a) << ": "
                << why;
            cfg = apply(model, cfg, a);
        }
        // Budget conservation, milliwatt-exact, every interval.
        std::int64_t sum = 0;
        for (const watts b : coord.inner().budgets()) sum += milliwatts(b);
        EXPECT_EQ(sum, milliwatts(opts.power_budget)) << "interval " << i;
        // Ownership consistency: pods' app sets plus strays partition the
        // app universe.
        std::vector<std::size_t> owned;
        for (const auto& pod : coord.inner().pods()) {
            owned.insert(owned.end(), pod->apps().begin(), pod->apps().end());
        }
        owned.insert(owned.end(), coord.inner().stray_apps().begin(),
                     coord.inner().stray_apps().end());
        std::sort(owned.begin(), owned.end());
        ASSERT_EQ(owned, (std::vector<std::size_t>{0, 1})) << "interval " << i;
        t += 120.0;
    }
    EXPECT_EQ(coord.restarts(), 3);
    EXPECT_FALSE(coord.last_checkpoint().empty());
}

// Armed-but-quiet machinery is free: a coordinator with the fault hook bound
// (returning no faults) and a finite-but-never-blown deadline must produce
// the byte-identical run of one with the machinery disabled.
TEST_F(ChaosTest, QuietFaultMachineryIsByteIdenticalToDisabled) {
    scenario_options sopts;
    sopts.host_count = 6;
    sopts.app_count = 2;
    wl::generator_options gen;
    gen.duration = 1.0 * 3600.0;
    gen.seed = 11;
    auto w0 = wl::world_cup_trace(gen, 0).scaled_to_range(0.0, 80.0);
    auto w1 = wl::world_cup_trace(gen, 1).scaled_to_range(0.0, 80.0);
    sopts.traces = {w0.renamed("A"), w1.renamed("B")};
    const auto scn = make_rubis_scenario(sopts);

    coordinator_options plain;
    global_coordinator off(scn.model, costs, uniform_partition(scn.model, 2),
                           {}, plain);

    coordinator_options armed = plain;
    armed.pod_deadline = 1e6;  // finite: arms the watchdog, never fires
    armed.pod_fault_hook = [](std::size_t) { return pod_step_fault{}; };
    global_coordinator on(scn.model, costs, uniform_partition(scn.model, 2),
                          {}, armed);

    const auto r_off = run_scenario(scn, off);
    const auto r_on = run_scenario(scn, on);
    EXPECT_EQ(r_on.cumulative_utility, r_off.cumulative_utility);
    EXPECT_EQ(r_on.mean_power, r_off.mean_power);
    EXPECT_EQ(r_on.invocations, r_off.invocations);
    EXPECT_EQ(r_on.total_actions, r_off.total_actions);
    EXPECT_EQ(r_on.search_duration.mean(), r_off.search_duration.mean());
    EXPECT_EQ(r_on.violation_fraction, r_off.violation_fraction);
}

// Sustained pod crashes cost utility, but the failsafe bounds the damage:
// held pods keep their last configuration, so the chaos run must retain most
// of the fault-free run's cumulative utility.
TEST_F(ChaosTest, FailsafesBoundTheUtilityDamageUnderSustainedCrashes) {
    scenario_options sopts;
    sopts.host_count = 6;
    sopts.app_count = 2;
    wl::generator_options gen;
    gen.duration = 1.0 * 3600.0;
    gen.seed = 13;
    auto w0 = wl::world_cup_trace(gen, 0).scaled_to_range(0.0, 80.0);
    auto w1 = wl::world_cup_trace(gen, 1).scaled_to_range(0.0, 80.0);
    sopts.traces = {w0.renamed("A"), w1.renamed("B")};
    const auto scn = make_rubis_scenario(sopts);

    global_coordinator clean(scn.model, costs,
                             uniform_partition(scn.model, 2));

    sim::control_fault_options fopts;
    fopts.crash_probability = 0.25;
    sim::control_fault_injector injector(fopts, 77);
    coordinator_options copts;
    copts.readmit_after = 2;
    copts.pod_fault_hook = [&injector](std::size_t pod) {
        const auto f = injector.on_pod_step(pod);
        return pod_step_fault{f.crashed, f.hang_multiplier};
    };
    global_coordinator chaotic(scn.model, costs,
                               uniform_partition(scn.model, 2), {}, copts);

    const auto r_clean = run_scenario(scn, clean);
    const auto r_chaos = run_scenario(scn, chaotic);
    // Deterministic scenario + deterministic fault schedule: this bound is a
    // regression fence, not a statistical claim. Crashing a quarter of pod
    // intervals costs about 1.5× the (small, negative) fault-free utility
    // magnitude here; the fence fails if failsafes ever let the damage run
    // away — a hold that drifted unboundedly would blow far past 2×.
    EXPECT_GT(r_chaos.cumulative_utility,
              r_clean.cumulative_utility -
                  2.0 * std::abs(r_clean.cumulative_utility));
}

scenario warm_restart_scenario() {
    scenario_options sopts;
    sopts.host_count = 4;
    sopts.app_count = 2;
    wl::generator_options gen;
    gen.duration = 1.5 * 3600.0;
    gen.seed = 7;
    auto w0 = wl::world_cup_trace(gen, 0).scaled_to_range(0.0, 90.0);
    auto w1 = wl::world_cup_trace(gen, 1).scaled_to_range(0.0, 90.0);
    sopts.traces = {w0.renamed("A"), w1.renamed("B")};
    return make_rubis_scenario(sopts);
}

// The tentpole proof: a coordinator that is torn down mid-run and rebuilt
// from its checkpoint plus decision-journal tail replay must resume the
// *byte-identical* run — same utility bits, same action count, same modeled
// delays — as one that never restarted.
void expect_warm_restart_identity(const scenario& scn) {
    const auto costs = cost::cost_table::paper_defaults();
    controller_builder builder;
    coordinator_options copts;

    global_coordinator uninterrupted(scn.model, costs,
                                     uniform_partition(scn.model, 2), builder,
                                     copts);

    restart_options ropts;
    ropts.checkpoint_every = 4;
    // Restart at awkward points: shortly after a checkpoint (short tail) and
    // far from one (long tail), plus a pre-first-checkpoint restart.
    ropts.restart_at = {150.0, 2000.0, 3700.0};
    restartable_coordinator restarted(
        [&] {
            return std::make_unique<global_coordinator>(
                scn.model, costs, uniform_partition(scn.model, 2), builder,
                copts);
        },
        ropts);

    const auto r0 = run_scenario(scn, uninterrupted);
    const auto r1 = run_scenario(scn, restarted);
    EXPECT_EQ(restarted.restarts(), 3);

    EXPECT_EQ(r1.cumulative_utility, r0.cumulative_utility);
    EXPECT_EQ(r1.mean_power, r0.mean_power);
    EXPECT_EQ(r1.invocations, r0.invocations);
    EXPECT_EQ(r1.total_actions, r0.total_actions);
    EXPECT_EQ(r1.total_failed_actions, r0.total_failed_actions);
    EXPECT_EQ(r1.search_duration.mean(), r0.search_duration.mean());
    EXPECT_EQ(r1.search_duration.max(), r0.search_duration.max());
    EXPECT_EQ(r1.violation_fraction, r0.violation_fraction);
    EXPECT_EQ(r1.total_wasted_seconds, r0.total_wasted_seconds);
}

TEST_F(ChaosTest, WarmRestartIsByteIdenticalFaultFreeSingleThread) {
    expect_warm_restart_identity(warm_restart_scenario());
}

// Same proof under infrastructure faults: aborted actions and a host crash
// flow through decision_input and are therefore part of the replayed tail —
// restart must not perturb the fault-handling decisions either.
TEST_F(ChaosTest, WarmRestartIsByteIdenticalUnderHostFaults) {
    auto scn = warm_restart_scenario();
    auto& f = scn.options.testbed.faults;
    f = sim::fault_options::uniform(0.25, 0.25);
    f.host_crashes.push_back({.at = 1200.0, .host = 1, .recover_after = 900.0});
    expect_warm_restart_identity(scn);
}

}  // namespace
}  // namespace mistral::core
