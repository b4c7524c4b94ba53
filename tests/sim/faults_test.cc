// Fault injector unit tests and testbed fault semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/faults.h"
#include "sim/testbed.h"
#include "test_fixtures.h"

namespace mistral {
namespace {

using cluster::action;

using test_support::make_model;
using test_support::base_config;

// ---- fault_options / fault_injector --------------------------------------

TEST(FaultInjector, DefaultOptionsAreInert) {
    EXPECT_TRUE(sim::fault_options{}.inert());
    EXPECT_TRUE(sim::fault_options::uniform(0.0).inert());
    EXPECT_FALSE(sim::fault_options::uniform(0.1).inert());
    EXPECT_FALSE(sim::fault_options::uniform(0.0, 0.1).inert());
    sim::fault_options crashes_only;
    crashes_only.host_crashes.push_back({.at = 10.0, .host = 0});
    EXPECT_FALSE(crashes_only.inert());
}

TEST(FaultInjector, InertInjectorNeverFaults) {
    sim::fault_injector inj(sim::fault_options{}, 7);
    EXPECT_TRUE(inj.inert());
    const action a = cluster::power_on{host_id{0}};
    for (int i = 0; i < 100; ++i) {
        const auto d = inj.on_action_start(a);
        EXPECT_FALSE(d.fail);
        EXPECT_EQ(d.duration_multiplier, 1.0);
    }
    EXPECT_TRUE(inj.take_crashes_due(1e9).empty());
    EXPECT_TRUE(inj.take_recoveries_due(1e9).empty());
}

TEST(FaultInjector, SameSeedReplaysBitIdentically) {
    const auto opts = sim::fault_options::uniform(0.3, 0.3);
    sim::fault_injector a(opts, 99);
    sim::fault_injector b(opts, 99);
    const action act = cluster::power_on{host_id{0}};
    bool any_fail = false;
    bool any_straggle = false;
    for (int i = 0; i < 300; ++i) {
        const auto da = a.on_action_start(act);
        const auto db = b.on_action_start(act);
        ASSERT_EQ(da.fail, db.fail);
        ASSERT_EQ(da.duration_multiplier, db.duration_multiplier);
        any_fail |= da.fail;
        any_straggle |= da.duration_multiplier > 1.0;
    }
    EXPECT_TRUE(any_fail);
    EXPECT_TRUE(any_straggle);
}

TEST(FaultInjector, CrashScheduleDeliversEachEventOnce) {
    sim::fault_options opts;
    opts.host_crashes.push_back({.at = 50.0, .host = 1, .recover_after = 100.0});
    opts.host_crashes.push_back({.at = 20.0, .host = 0});
    sim::fault_injector inj(opts, 1);
    EXPECT_NEAR(inj.next_event_time(), 20.0, 1e-12);

    auto due = inj.take_crashes_due(30.0);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].host, 0);
    EXPECT_NEAR(inj.next_event_time(), 50.0, 1e-12);

    due = inj.take_crashes_due(60.0);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].host, 1);
    // Host 1's recovery is now pending at 150 s.
    EXPECT_NEAR(inj.next_event_time(), 150.0, 1e-12);
    EXPECT_TRUE(inj.take_recoveries_due(149.0).empty());
    const auto rec = inj.take_recoveries_due(150.0);
    ASSERT_EQ(rec.size(), 1u);
    EXPECT_EQ(rec[0], 1);
    EXPECT_TRUE(inj.take_crashes_due(1e9).empty());
}

TEST(FaultInjector, RejectsInvalidOptions) {
    EXPECT_THROW(sim::fault_injector(sim::fault_options::uniform(1.5), 1),
                 invariant_error);
    sim::fault_options bad;
    bad.straggler_probability.fill(0.1);
    bad.straggler_multiplier = 0.5;
    EXPECT_THROW(sim::fault_injector(bad, 1), invariant_error);
}

// ---- sensor_fault_injector -------------------------------------------------

wl::telemetry_window make_window(seconds t, std::vector<req_per_sec> rates) {
    wl::telemetry_window w;
    w.time = t;
    w.duration = 120.0;
    w.samples.reserve(rates.size());
    for (const auto r : rates) w.samples.push_back(r * w.duration);
    w.rates = std::move(rates);
    return w;
}

// Options where exactly one fault kind fires with probability 1.
sim::sensor_fault_options only(sim::sensor_fault_kind kind) {
    sim::sensor_fault_options o;
    switch (kind) {
        case sim::sensor_fault_kind::drop: o.drop_probability = 1.0; break;
        case sim::sensor_fault_kind::delay: o.delay_probability = 1.0; break;
        case sim::sensor_fault_kind::duplicate: o.duplicate_probability = 1.0; break;
        case sim::sensor_fault_kind::spike: o.spike_probability = 1.0; break;
        case sim::sensor_fault_kind::garbage: o.garbage_probability = 1.0; break;
        case sim::sensor_fault_kind::stuck: o.stuck_probability = 1.0; break;
        case sim::sensor_fault_kind::none: break;
    }
    return o;
}

TEST(SensorFaults, DefaultOptionsAreInertAndLeaveWindowsUntouched) {
    EXPECT_TRUE(sim::sensor_fault_options{}.inert());
    EXPECT_TRUE(sim::sensor_fault_options::uniform(0.0).inert());
    EXPECT_FALSE(sim::sensor_fault_options::uniform(0.05).inert());

    sim::sensor_fault_injector inj(sim::sensor_fault_options{}, 7);
    EXPECT_TRUE(inj.inert());
    for (int i = 0; i < 20; ++i) {
        auto w = make_window(i * 120.0, {40.0, 55.0});
        const auto original = w;
        EXPECT_TRUE(inj.corrupt(w).empty());
        EXPECT_EQ(w.rates, original.rates);
        EXPECT_EQ(w.samples, original.samples);
    }
}

TEST(SensorFaults, SameSeedReplaysBitIdentically) {
    const auto opts = sim::sensor_fault_options::uniform(0.1);
    sim::sensor_fault_injector a(opts, 99);
    sim::sensor_fault_injector b(opts, 99);
    std::size_t faults = 0;
    for (int i = 0; i < 200; ++i) {
        auto wa = make_window(i * 120.0, {40.0 + i, 55.0});
        auto wb = wa;
        const auto fa = a.corrupt(wa);
        const auto fb = b.corrupt(wb);
        ASSERT_EQ(fa, fb);
        for (std::size_t k = 0; k < wa.rates.size(); ++k) {
            // Bit-compare via memcmp semantics: NaN != NaN under operator==.
            ASSERT_EQ(std::memcmp(&wa.rates[k], &wb.rates[k], sizeof(double)), 0);
        }
        faults += fa.size();
    }
    EXPECT_GT(faults, 0u);
}

TEST(SensorFaults, DropDeliversEmptyWindow) {
    sim::sensor_fault_injector inj(only(sim::sensor_fault_kind::drop), 3);
    auto w = make_window(0.0, {40.0});
    const auto faults = inj.corrupt(w);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].kind, sim::sensor_fault_kind::drop);
    EXPECT_EQ(w.rates[0], 0.0);
    EXPECT_EQ(w.samples[0], 0.0);
}

TEST(SensorFaults, DelayDeliversPreviousWindowAndIsANoOpOnTheFirst) {
    sim::sensor_fault_injector inj(only(sim::sensor_fault_kind::delay), 3);
    auto first = make_window(0.0, {40.0});
    EXPECT_TRUE(inj.corrupt(first).empty());  // nothing to replay yet
    EXPECT_EQ(first.rates[0], 40.0);
    auto second = make_window(120.0, {70.0});
    const auto faults = inj.corrupt(second);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].kind, sim::sensor_fault_kind::delay);
    EXPECT_EQ(second.rates[0], 40.0);  // the previous *true* value
}

TEST(SensorFaults, DuplicateDoublesRateAndSamples) {
    sim::sensor_fault_injector inj(only(sim::sensor_fault_kind::duplicate), 3);
    auto w = make_window(0.0, {40.0});
    inj.corrupt(w);
    EXPECT_EQ(w.rates[0], 80.0);
    EXPECT_EQ(w.samples[0], 2.0 * 40.0 * 120.0);
}

TEST(SensorFaults, SpikeMultipliesWithinConfiguredBounds) {
    auto opts = only(sim::sensor_fault_kind::spike);
    opts.spike_multiplier = 6.0;
    sim::sensor_fault_injector inj(opts, 3);
    for (int i = 0; i < 50; ++i) {
        auto w = make_window(i * 120.0, {40.0});
        inj.corrupt(w);
        EXPECT_GE(w.rates[0], 2.0 * 40.0);
        EXPECT_LE(w.rates[0], 6.0 * 40.0);
    }
}

TEST(SensorFaults, GarbageProducesPhysicallyImpossibleValues) {
    sim::sensor_fault_injector inj(only(sim::sensor_fault_kind::garbage), 3);
    bool nonfinite = false;
    bool negative = false;
    bool huge = false;
    for (int i = 0; i < 80; ++i) {
        auto w = make_window(i * 120.0, {40.0});
        inj.corrupt(w);
        const double r = w.rates[0];
        if (!std::isfinite(r)) nonfinite = true;
        if (r < 0.0) negative = true;
        if (r > 1.0e6) huge = true;
    }
    EXPECT_TRUE(nonfinite);
    EXPECT_TRUE(negative);
    EXPECT_TRUE(huge);
}

TEST(SensorFaults, StuckLatchesForConfiguredWindows) {
    auto opts = only(sim::sensor_fault_kind::stuck);
    opts.stuck_windows = 3;
    sim::sensor_fault_injector inj(opts, 3);
    auto first = make_window(0.0, {40.0});
    EXPECT_TRUE(inj.corrupt(first).empty());  // no last value to latch yet
    for (int i = 1; i <= 6; ++i) {
        auto w = make_window(i * 120.0, {40.0 + 10.0 * i});
        const auto faults = inj.corrupt(w);
        ASSERT_EQ(faults.size(), 1u) << "window " << i;
        EXPECT_EQ(faults[0].kind, sim::sensor_fault_kind::stuck);
        EXPECT_EQ(w.rates[0], 40.0) << "window " << i;  // latched forever at p=1
    }
}

TEST(SensorFaults, RejectsInvalidOptions) {
    EXPECT_THROW(
        sim::sensor_fault_injector(sim::sensor_fault_options::uniform(0.2), 1),
        invariant_error);  // six kinds at 0.2 sum to 1.2
    auto bad = sim::sensor_fault_options{};
    bad.spike_probability = 0.1;
    bad.spike_multiplier = 1.5;
    EXPECT_THROW(sim::sensor_fault_injector(bad, 1), invariant_error);
    auto stuck = sim::sensor_fault_options{};
    stuck.stuck_probability = 0.1;
    stuck.stuck_windows = 0;
    EXPECT_THROW(sim::sensor_fault_injector(stuck, 1), invariant_error);
}

// ---- testbed fault semantics ----------------------------------------------

TEST(TestbedFaults, ZeroProbabilityIsByteIdenticalToDefault) {
    const auto model = make_model(3, 1);
    const auto config = base_config(model);
    sim::testbed plain(model, config, {});
    sim::testbed_options with_knobs;
    with_knobs.faults = sim::fault_options::uniform(0.0, 0.0);
    sim::testbed faulted(model, config, with_knobs);

    const auto mig = cluster::migrate{model.tier_vms(app_id{0}, 2)[0], host_id{0}};
    plain.submit({mig});
    faulted.submit({mig});
    for (int i = 0; i < 8; ++i) {
        const auto a = plain.advance(60.0, {40.0});
        const auto b = faulted.advance(60.0, {40.0});
        ASSERT_EQ(a.response_time, b.response_time);  // bit-identical doubles
        ASSERT_EQ(a.power, b.power);
        ASSERT_EQ(a.completed.size(), b.completed.size());
        ASSERT_TRUE(b.failed.empty());
        ASSERT_TRUE(b.hosts_failed.empty());
        ASSERT_EQ(b.wasted_fraction, 0.0);
    }
    EXPECT_EQ(plain.config(), faulted.config());
}

TEST(TestbedFaults, FailedActionLeavesConfigurationUnchanged) {
    const auto model = make_model(3, 1);
    const auto config = base_config(model);
    sim::testbed_options opts;
    opts.faults = sim::fault_options::uniform(1.0);  // every action aborts
    sim::testbed tb(model, config, opts);

    const auto mig = cluster::migrate{model.tier_vms(app_id{0}, 2)[0], host_id{0}};
    tb.submit({mig});
    sim::observation obs;
    while (tb.busy()) obs = tb.advance(60.0, {40.0});
    ASSERT_EQ(obs.failed.size(), 1u);
    EXPECT_TRUE(obs.completed.empty());
    EXPECT_EQ(tb.config(), config);  // pre-action state, exactly
    EXPECT_GT(obs.wasted_fraction, 0.0);
    std::string why;
    EXPECT_TRUE(structurally_valid(model, tb.config(), &why)) << why;
}

TEST(TestbedFaults, FailedActionDoomsDependentQueuedActions) {
    const auto model = make_model(3, 1);
    const auto config = base_config(model);
    sim::testbed_options opts;
    opts.faults = sim::fault_options::uniform(1.0);
    sim::testbed tb(model, config, opts);

    // add_replica then increase_cpu of the added VM: when the add aborts,
    // the increase must abort too (its VM is still dormant). Tier 1 (app)
    // allows two replicas, so it has a dormant VM to add.
    const auto& tier_vms = model.tier_vms(app_id{0}, 1);
    vm_id spare{};
    for (vm_id vm : tier_vms) {
        if (!config.deployed(vm)) {
            spare = vm;
            break;
        }
    }
    ASSERT_TRUE(spare.valid());
    const auto cap = model.tier_spec_of(spare).min_cpu_cap;
    tb.submit({cluster::add_replica{spare, host_id{2}, cap},
               cluster::increase_cpu{spare}});
    std::size_t failed = 0;
    while (tb.busy()) failed += tb.advance(60.0, {40.0}).failed.size();
    EXPECT_EQ(failed, 2u);
    EXPECT_EQ(tb.config(), config);
}

TEST(TestbedFaults, StragglerDelaysCompletionButStillApplies) {
    const auto model = make_model(3, 1);
    const auto config = base_config(model);
    const auto mig = cluster::migrate{model.tier_vms(app_id{0}, 2)[0], host_id{0}};

    auto windows_to_complete = [&](sim::testbed_options opts) {
        sim::testbed tb(model, config, opts);
        tb.submit({mig});
        int n = 0;
        while (tb.busy()) {
            tb.advance(10.0, {40.0});
            ++n;
        }
        return n;
    };
    sim::testbed_options straggle;
    straggle.faults = sim::fault_options::uniform(0.0, 1.0);
    straggle.faults.straggler_multiplier = 4.0;
    const int plain = windows_to_complete({});
    const int slow = windows_to_complete(straggle);
    EXPECT_GT(slow, plain);

    // The straggling action still completes and applies.
    sim::testbed tb(model, config, straggle);
    tb.submit({mig});
    std::size_t completed = 0;
    while (tb.busy()) completed += tb.advance(60.0, {40.0}).completed.size();
    EXPECT_EQ(completed, 1u);
    EXPECT_NE(tb.config(), config);
}

TEST(TestbedFaults, HostCrashUndeploysAndFencesUntilRecovery) {
    const auto model = make_model(3, 1);
    const auto config = base_config(model);
    // Find a host with at least one VM.
    host_id victim{0};
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        if (config.vm_count_on(host_id{static_cast<std::int32_t>(h)}) > 0) {
            victim = host_id{static_cast<std::int32_t>(h)};
            break;
        }
    }
    sim::testbed_options opts;
    opts.faults.host_crashes.push_back(
        {.at = 90.0, .host = victim.value, .recover_after = 120.0});
    sim::testbed tb(model, config, opts);

    auto obs = tb.advance(120.0, {40.0});
    ASSERT_EQ(obs.hosts_failed.size(), 1u);
    EXPECT_EQ(obs.hosts_failed[0], victim.value);
    EXPECT_TRUE(tb.config().host_failed(victim));
    EXPECT_FALSE(tb.config().host_on(victim));
    EXPECT_EQ(tb.config().vm_count_on(victim), 0u);
    std::string why;
    EXPECT_TRUE(structurally_valid_degraded(model, tb.config(), &why)) << why;
    EXPECT_FALSE(applicable(model, tb.config(), cluster::power_on{victim}));

    // Recovery at 210 s clears the mark; the host stays off but can boot.
    obs = tb.advance(120.0, {40.0});
    ASSERT_EQ(obs.hosts_recovered.size(), 1u);
    EXPECT_EQ(obs.hosts_recovered[0], victim.value);
    EXPECT_FALSE(tb.config().host_failed(victim));
    EXPECT_FALSE(tb.config().host_on(victim));
    EXPECT_TRUE(applicable(model, tb.config(), cluster::power_on{victim}));
}

TEST(TestbedFaults, CrashedOutApplicationReportsOutageResponseTime) {
    const auto model = make_model(3, 1);
    auto config = base_config(model);
    // Consolidate every VM of the app onto host 0 so one crash downs it all.
    for (const auto& desc : model.vms()) {
        const auto& p = config.placement(desc.vm);
        if (!p || p->host == host_id{0}) continue;
        const cluster::action m = cluster::migrate{desc.vm, host_id{0}};
        ASSERT_TRUE(applicable(model, config, m));
        config = apply(model, config, m);
    }
    sim::testbed_options opts;
    opts.faults.host_crashes.push_back({.at = 30.0, .host = 0});
    opts.outage_response_time = 25.0;
    sim::testbed tb(model, config, opts);
    const auto obs = tb.advance(120.0, {40.0});
    // 3/4 of the window at outage RT dominates the mean.
    EXPECT_GT(obs.response_time[0], 10.0);
    EXPECT_GT(obs.power, 0.0);  // surviving hosts still draw idle power
}

// In-flight reporting at the window boundary: a sequence that spans windows
// is visible in every observation until it completes (the fix this PR locks
// down: partially-executed sequences were previously silent).
TEST(TestbedFaults, InFlightActionsReportedAtWindowBoundary) {
    const auto model = make_model(3, 1);
    const auto config = base_config(model);
    sim::testbed tb(model, config, {});  // no faults: reporting is unconditional

    const auto mig = cluster::migrate{model.tier_vms(app_id{0}, 2)[0], host_id{0}};
    const auto tune = cluster::increase_cpu{model.tier_vms(app_id{0}, 2)[0]};
    tb.submit({mig, tune}, /*initial_delay=*/5.0);

    // Window 1 ends mid-migration: both actions still outstanding, executing
    // one first.
    auto obs = tb.advance(10.0, {40.0});
    ASSERT_EQ(obs.in_flight.size(), 2u);
    EXPECT_EQ(kind_of(obs.in_flight[0]), cluster::action_kind::migrate);
    EXPECT_EQ(kind_of(obs.in_flight[1]), cluster::action_kind::increase_cpu);
    EXPECT_TRUE(obs.completed.empty());
    EXPECT_TRUE(tb.busy());

    // Drain: once everything completed, nothing is in flight.
    while (tb.busy()) obs = tb.advance(60.0, {40.0});
    EXPECT_TRUE(obs.in_flight.empty());
    EXPECT_EQ(tb.pending_actions(), 0u);
}

TEST(TestbedFaults, WastedFractionNeverExceedsAdaptingFraction) {
    const auto model = make_model(3, 1);
    const auto config = base_config(model);
    sim::testbed_options opts;
    opts.seed = 11;
    opts.faults = sim::fault_options::uniform(0.5, 0.3);
    sim::testbed tb(model, config, opts);
    const auto mig = cluster::migrate{model.tier_vms(app_id{0}, 2)[0], host_id{0}};
    for (int i = 0; i < 20; ++i) {
        if (!tb.busy()) {
            // Re-submit whichever direction is currently legal.
            for (const auto& a : enumerate_actions(model, tb.config())) {
                if (kind_of(a) == cluster::action_kind::migrate) {
                    tb.submit({a});
                    break;
                }
            }
        }
        const auto obs = tb.advance(45.0, {40.0});
        ASSERT_GE(obs.wasted_fraction, 0.0);
        ASSERT_LE(obs.wasted_fraction, obs.adapting_fraction + 1e-9);
        ASSERT_LE(obs.adapting_fraction, 1.0 + 1e-9);
    }
    (void)mig;
}

}  // namespace
}  // namespace mistral
