// core/snapshot.h: the codecs round-trip *exactly* (bit-equal doubles, not
// tolerances), version mismatches are refused, and importing an exported
// coordinator state reproduces the exact decision stream.
#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "apps/rubis.h"
#include "common/check.h"
#include "core/experiment.h"
#include "workload/generators.h"

namespace mistral::core {
namespace {

cluster::cluster_model two_app_model(std::size_t hosts) {
    std::vector<apps::application_spec> specs;
    specs.push_back(apps::rubis_browsing("A"));
    specs.push_back(apps::rubis_browsing("B"));
    return cluster::cluster_model(cluster::uniform_hosts(hosts),
                                  std::move(specs));
}

TEST(SnapshotCodec, EveryActionKindRoundTrips) {
    const std::vector<cluster::action> all = {
        cluster::increase_cpu{vm_id{3}},
        cluster::decrease_cpu{vm_id{1}},
        cluster::add_replica{vm_id{2}, host_id{4}, 0.35},
        cluster::remove_replica{vm_id{5}},
        cluster::migrate{vm_id{0}, host_id{3}},
        cluster::power_on{host_id{2}},
        cluster::power_off{host_id{1}},
    };
    for (const auto& a : all) {
        const auto back = action_from_json(to_json(a));
        EXPECT_EQ(back, a) << to_json(a);
    }
}

TEST(SnapshotCodec, ConfigurationRoundTripsExactlyIncludingFailureMarks) {
    const auto model = two_app_model(4);
    cluster::configuration c(model.vm_count(), model.host_count());
    c.set_host_power(host_id{0}, true);
    c.set_host_power(host_id{1}, true);
    c.set_host_power(host_id{3}, true);
    c.deploy(vm_id{0}, host_id{0}, 0.381);  // milli-exact caps
    c.deploy(vm_id{1}, host_id{1}, 0.2);
    c.deploy(vm_id{2}, host_id{3}, 0.555);
    c.set_host_failed(host_id{2}, true);

    const auto back = configuration_from_json(to_json(c));
    EXPECT_EQ(back, c);
    // Equality covers placements/power/failure; the incremental hash is
    // derived state and must land on the same value too.
    EXPECT_EQ(back.hash(), c.hash());
    // And serialization is deterministic: same state, same bytes.
    EXPECT_EQ(to_json(back), to_json(c));
}

// The codec's bytes — and the configuration hash — for a fixed
// configuration are pinned, so a change to how configuration stores its
// state cannot silently change checkpoints or journals.
TEST(SnapshotCodec, ConfigurationBytesArePinned) {
    const auto model = two_app_model(4);
    cluster::configuration c(model.vm_count(), model.host_count());
    c.set_host_power(host_id{0}, true);
    c.set_host_power(host_id{1}, true);
    c.set_host_power(host_id{3}, true);
    c.deploy(vm_id{0}, host_id{0}, 0.381);
    c.deploy(vm_id{1}, host_id{1}, 0.2);
    c.deploy(vm_id{2}, host_id{3}, 0.555);
    c.set_host_failed(host_id{2}, true);
    EXPECT_EQ(to_json(c),
              R"({"vms":10,"hosts":4,"on":[0,1,3],"down":[2],)"
              R"("placed":[[0,0,0.381],[1,1,0.2],[2,3,0.555]]})");
    EXPECT_EQ(c.hash(), std::size_t{12566769801292626150ULL});
    const cluster::configuration copy = c;
    EXPECT_EQ(to_json(copy), to_json(c));
}

TEST(SnapshotCodec, DecisionInputRoundTripsAllChannels) {
    const auto model = two_app_model(4);
    decision_input in;
    in.now = 1234.5;
    in.rates = {41.25, 0.1 + 0.2};  // deliberately non-representable sum
    in.current = cluster::configuration(model.vm_count(), model.host_count());
    in.current.set_host_power(host_id{0}, true);
    in.current.deploy(vm_id{0}, host_id{0}, 0.4);
    in.last_interval_utility = -3.7e-9;
    in.failed = {cluster::migrate{vm_id{1}, host_id{2}}};
    in.in_flight = {cluster::power_on{host_id{3}},
                    cluster::add_replica{vm_id{2}, host_id{1}, 0.25}};
    in.hosts_failed = {2};
    in.hosts_recovered = {1, 3};
    in.response_times = {0.012, 0.5};
    in.samples = {120.0, 0.0};

    const auto back = decision_input_from_json(to_json(in));
    EXPECT_EQ(back.now, in.now);
    EXPECT_EQ(back.rates, in.rates);  // bit-equal, not approximately
    EXPECT_EQ(back.current, in.current);
    EXPECT_EQ(back.last_interval_utility, in.last_interval_utility);
    EXPECT_EQ(back.failed, in.failed);
    EXPECT_EQ(back.in_flight, in.in_flight);
    EXPECT_EQ(back.hosts_failed, in.hosts_failed);
    EXPECT_EQ(back.hosts_recovered, in.hosts_recovered);
    EXPECT_EQ(back.response_times, in.response_times);
    EXPECT_EQ(back.samples, in.samples);
}

TEST(SnapshotCodec, NonFiniteValuesSurviveTheRoundTrip) {
    decision_input in;
    in.now = 0.0;
    in.rates = {std::numeric_limits<double>::infinity()};
    in.current = cluster::configuration(1, 1);
    const auto back = decision_input_from_json(to_json(in));
    EXPECT_TRUE(std::isinf(back.rates[0]));
    EXPECT_GT(back.rates[0], 0.0);
}

TEST(Snapshot, LiveCoordinatorStateRoundTripsExactly) {
    const auto model = two_app_model(6);
    const auto costs = cost::cost_table::paper_defaults();
    coordinator_options opts;
    opts.power_budget = 900.0;  // arm the budget broker: budgets_ non-empty
    global_coordinator coord(model, costs,
                             partition(model, {{0, {0, 1, 2}}, {1, {3, 4, 5}}}),
                             {}, opts);

    cluster::configuration cfg(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 6; ++h) cfg.set_host_power(host_id{h}, true);
    for (std::size_t t = 0; t < 3; ++t) {
        cfg.deploy(model.tier_vms(app_id{0}, t)[0],
                   host_id{static_cast<std::int32_t>(t)}, 0.3);
        cfg.deploy(model.tier_vms(app_id{1}, t)[0],
                   host_id{static_cast<std::int32_t>(3 + t)}, 0.3);
    }
    seconds t = 0.0;
    for (const double rate : {40.0, 44.0, 60.0, 85.0}) {
        const auto out = coord.decide({t, {rate, rate * 0.8}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = cluster::apply(model, cfg, a);
        t += 120.0;
    }

    const coordinator_state exported = coord.export_state();
    const std::string text = to_json(snapshot{snapshot_version, t, exported});
    const snapshot back = snapshot_from_json(text);
    EXPECT_EQ(back.version, snapshot_version);
    EXPECT_EQ(back.taken_at, t);
    EXPECT_TRUE(back.state == exported);
    // Determinism of the byte format itself.
    EXPECT_EQ(to_json(back), text);
}

TEST(Snapshot, ImportedCoordinatorContinuesTheExactDecisionStream) {
    const auto model = two_app_model(6);
    const auto costs = cost::cost_table::paper_defaults();
    const auto parts = partition(model, {{0, {0, 1, 2}}, {1, {3, 4, 5}}});
    coordinator_options opts;
    opts.power_budget = 900.0;
    global_coordinator original(model, costs, parts, {}, opts);
    global_coordinator restored(model, costs, parts, {}, opts);

    cluster::configuration cfg(model.vm_count(), model.host_count());
    for (std::int32_t h = 0; h < 6; ++h) cfg.set_host_power(host_id{h}, true);
    for (std::size_t tier = 0; tier < 3; ++tier) {
        cfg.deploy(model.tier_vms(app_id{0}, tier)[0],
                   host_id{static_cast<std::int32_t>(tier)}, 0.3);
        cfg.deploy(model.tier_vms(app_id{1}, tier)[0],
                   host_id{static_cast<std::int32_t>(3 + tier)}, 0.3);
    }
    seconds t = 0.0;
    for (const double rate : {40.0, 44.0, 60.0}) {
        const auto out = original.decide({t, {rate, rate * 0.8}, cfg, 1.0});
        for (const auto& a : out.actions) cfg = cluster::apply(model, cfg, a);
        t += 120.0;
    }
    // Checkpoint through the serialized form, restore into the twin.
    const snapshot snap =
        snapshot_from_json(to_json(snapshot{snapshot_version, t,
                                            original.export_state()}));
    restored.import_state(snap.state, snap.taken_at);

    auto cfg2 = cfg;
    for (const double rate : {85.0, 30.0, 12.0}) {
        const auto oo = original.decide({t, {rate, rate * 0.8}, cfg, 1.0});
        const auto rr = restored.decide({t, {rate, rate * 0.8}, cfg2, 1.0});
        ASSERT_EQ(oo.invoked, rr.invoked) << "t=" << t;
        ASSERT_EQ(oo.actions, rr.actions) << "t=" << t;
        EXPECT_EQ(oo.decision_delay, rr.decision_delay);
        EXPECT_EQ(oo.decision_power_cost, rr.decision_power_cost);
        for (const auto& a : oo.actions) {
            cfg = cluster::apply(model, cfg, a);
            cfg2 = cluster::apply(model, cfg2, a);
        }
        t += 120.0;
    }
    EXPECT_TRUE(original.export_state() == restored.export_state());
}

TEST(Snapshot, PreFirstDecideCheckpointRestoresLazily) {
    const auto model = two_app_model(4);
    const auto costs = cost::cost_table::paper_defaults();
    global_coordinator coord(model, costs, uniform_partition(model, 2));
    const coordinator_state s = coord.export_state();
    EXPECT_TRUE(s.pods.empty());  // pods materialize on the first decide
    global_coordinator twin(model, costs, uniform_partition(model, 2));
    twin.import_state(snapshot_from_json(
                          to_json(snapshot{snapshot_version, 0.0, s}))
                          .state,
                      0.0);
    EXPECT_TRUE(twin.export_state() == s);
}

TEST(Snapshot, VersionMismatchIsRefused) {
    const std::string good =
        to_json(snapshot{snapshot_version, 0.0, coordinator_state{}});
    std::string bad = good;
    const std::string needle = "\"version\":" + std::to_string(snapshot_version);
    bad.replace(bad.find(needle), needle.size(), "\"version\":99");
    EXPECT_THROW((void)snapshot_from_json(bad), invariant_error);
    EXPECT_NO_THROW((void)snapshot_from_json(good));
}

}  // namespace
}  // namespace mistral::core
