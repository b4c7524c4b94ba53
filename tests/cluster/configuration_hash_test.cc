// Incremental Zobrist-hash invariants.
//
// configuration::hash() is maintained O(1) by the mutators; these tests prove
// it never drifts from the from-scratch recompute_hash() across randomized
// mutation sequences (including failure injection and inverse pairs), that
// idempotent writes leave it untouched, and that value-equal configurations
// reached by different mutation histories hash identically. Runs under the
// `sanitize` CTest label so release/sanitizer builds cover the property the
// debug-only assertion in cluster::apply checks per edge.
#include "cluster/configuration.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/rubis.h"
#include "common/rng.h"

namespace mistral::cluster {
namespace {

cluster_model make_model(std::size_t hosts, std::size_t apps) {
    std::vector<apps::application_spec> specs;
    for (std::size_t a = 0; a < apps; ++a) {
        specs.push_back(apps::rubis_browsing("R" + std::to_string(a)));
    }
    return cluster_model(uniform_hosts(hosts), std::move(specs));
}

configuration base_config(const cluster_model& m) {
    configuration c(m.vm_count(), m.host_count());
    for (std::size_t h = 0; h < m.host_count(); ++h) {
        c.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
    }
    for (std::size_t a = 0; a < m.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < m.app(app).tier_count(); ++t) {
            c.deploy(m.tier_vms(app, t)[0],
                     host_id{static_cast<std::int32_t>((2 * a + t) % m.host_count())},
                     0.4);
        }
    }
    return c;
}

TEST(ConfigurationHash, EmptyAndFreshConfigurationsVerify) {
    EXPECT_TRUE(configuration{}.verify_hash());
    const auto m = make_model(4, 2);
    EXPECT_TRUE(configuration(m.vm_count(), m.host_count()).verify_hash());
    EXPECT_TRUE(base_config(m).verify_hash());
}

TEST(ConfigurationHash, RandomMutationSequencesNeverDrift) {
    const auto m = make_model(6, 2);
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        rng r(seed);
        auto c = base_config(m);
        for (int step = 0; step < 400; ++step) {
            const auto vm = m.vms()[r.uniform_index(m.vm_count())].vm;
            const host_id host{
                static_cast<std::int32_t>(r.uniform_index(m.host_count()))};
            switch (r.uniform_index(6)) {
                case 0:
                    c.deploy(vm, host,
                             0.2 + 0.1 * static_cast<double>(r.uniform_index(7)));
                    break;
                case 1:
                    if (c.deployed(vm)) c.undeploy(vm);
                    break;
                case 2:
                    if (c.deployed(vm)) {
                        c.set_cap(vm,
                                  0.2 + 0.1 * static_cast<double>(r.uniform_index(7)));
                    }
                    break;
                case 3:
                    // Power toggles only when legal (no hosted VMs, not failed).
                    if (c.host_on(host) && c.vm_count_on(host) == 0) {
                        c.set_host_power(host, false);
                    } else if (!c.host_on(host) && !c.host_failed(host)) {
                        c.set_host_power(host, true);
                    }
                    break;
                case 4:
                    if (!c.host_failed(host)) {
                        // Crash: evacuate, then mark failed (forces power-off).
                        for (const vm_id hosted : c.vms_on(host)) c.undeploy(hosted);
                        c.set_host_failed(host, true);
                    }
                    break;
                default:
                    if (c.host_failed(host)) c.set_host_failed(host, false);
                    break;
            }
            ASSERT_TRUE(c.verify_hash()) << "seed " << seed << " step " << step;
        }
    }
}

TEST(ConfigurationHash, InversePairsRestoreTheExactHash) {
    const auto m = make_model(4, 2);
    auto c = base_config(m);
    const auto h0 = c.hash();
    const auto vm = m.tier_vms(app_id{0}, 0)[0];
    const auto old = *c.placement(vm);

    c.set_cap(vm, 0.7);
    EXPECT_NE(c.hash(), h0);
    c.set_cap(vm, old.cpu_cap);
    EXPECT_EQ(c.hash(), h0);

    c.deploy(vm, host_id{3}, 0.6);
    c.deploy(vm, old.host, old.cpu_cap);
    EXPECT_EQ(c.hash(), h0);

    c.undeploy(vm);
    c.deploy(vm, old.host, old.cpu_cap);
    EXPECT_EQ(c.hash(), h0);

    // A failure mark forced the host off; clearing it and powering back on
    // restores the exact healthy hash (replay determinism leans on this).
    for (const vm_id hosted : c.vms_on(host_id{1})) c.undeploy(hosted);
    const auto degraded = c.hash();
    c.set_host_failed(host_id{1}, true);
    c.set_host_failed(host_id{1}, false);
    c.set_host_power(host_id{1}, true);
    EXPECT_EQ(c.hash(), degraded);
    EXPECT_TRUE(c.verify_hash());
}

TEST(ConfigurationHash, IdempotentWritesLeaveHashUntouched) {
    const auto m = make_model(4, 2);
    auto c = base_config(m);
    const auto h0 = c.hash();
    c.set_host_power(host_id{0}, true);   // already on
    EXPECT_EQ(c.hash(), h0);
    c.set_host_failed(host_id{0}, false); // already healthy
    EXPECT_EQ(c.hash(), h0);
    const auto vm = m.tier_vms(app_id{0}, 0)[0];
    const auto old = *c.placement(vm);
    c.deploy(vm, old.host, old.cpu_cap);  // redeploy in place
    EXPECT_EQ(c.hash(), h0);
    EXPECT_TRUE(c.verify_hash());
}

TEST(ConfigurationHash, EqualConfigurationsFromDifferentHistoriesHashEqual) {
    const auto m = make_model(4, 2);
    auto a = base_config(m);
    // Reach the same value by a detour: move a VM away and back, crash and
    // heal a host, power-cycle another.
    auto b = base_config(m);
    const auto vm = m.tier_vms(app_id{1}, 1)[0];
    const auto old = *b.placement(vm);
    b.deploy(vm, host_id{0}, 0.3);
    b.deploy(vm, old.host, old.cpu_cap);
    for (const vm_id hosted : b.vms_on(host_id{3})) {
        const auto p = *b.placement(hosted);
        b.undeploy(hosted);
        b.deploy(hosted, p.host, p.cpu_cap);
    }
    ASSERT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
}

// Per-host state lives in one block per configuration; a copy must carry
// all of it — power, failure marks, and the derived aggregates — and stay
// independent of the original afterwards.
TEST(ConfigurationHash, CopiesCompareAndHashEqual) {
    const auto m = make_model(6, 2);
    auto original = base_config(m);
    original.set_host_power(host_id{5}, false);
    original.set_host_failed(host_id{4}, true);
    original.set_cap(m.tier_vms(app_id{0}, 1)[0], 0.7);

    const configuration copy = original;
    EXPECT_EQ(copy, original);
    EXPECT_EQ(copy.hash(), original.hash());
    EXPECT_TRUE(copy.verify_hash());
    for (std::size_t h = 0; h < m.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        EXPECT_EQ(copy.host_on(host), original.host_on(host)) << h;
        EXPECT_EQ(copy.host_failed(host), original.host_failed(host)) << h;
        EXPECT_EQ(copy.cap_sum(host), original.cap_sum(host)) << h;
        EXPECT_EQ(copy.vm_count_on(host), original.vm_count_on(host)) << h;
    }

    configuration assigned(m.vm_count(), m.host_count());
    assigned = original;
    EXPECT_EQ(assigned, original);
    EXPECT_EQ(assigned.hash(), original.hash());

    // Mutating the copy leaves the original untouched.
    assigned.set_host_failed(host_id{4}, false);
    assigned.set_host_power(host_id{5}, true);
    EXPECT_NE(assigned, original);
    EXPECT_TRUE(original.host_failed(host_id{4}));
    EXPECT_FALSE(original.host_on(host_id{5}));
    EXPECT_EQ(copy, original);
}

// Power and failure toggles on every host restore the exact prior hash and
// compare equal again, whether the host started on, off, or hosting VMs.
TEST(ConfigurationHash, HostTogglesRestoreHashAndEquality) {
    const auto m = make_model(6, 2);
    auto c = base_config(m);
    c.set_host_power(host_id{5}, false);  // one host starts off
    const configuration before = c;
    for (std::size_t h = 0; h < m.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        const bool was_on = c.host_on(host);
        if (c.vm_count_on(host) == 0) {
            c.set_host_power(host, !was_on);
            EXPECT_NE(c.hash(), before.hash()) << h;
            EXPECT_NE(c, before) << h;
            c.set_host_power(host, was_on);
            EXPECT_EQ(c.hash(), before.hash()) << h;
            EXPECT_EQ(c, before) << h;

            // Crash and heal: the mark forces the host off; clearing it
            // leaves it off until it is deliberately powered back on.
            c.set_host_failed(host, true);
            EXPECT_NE(c.hash(), before.hash()) << h;
            EXPECT_NE(c, before) << h;
            c.set_host_failed(host, false);
            c.set_host_power(host, was_on);
            EXPECT_EQ(c.hash(), before.hash()) << h;
            EXPECT_EQ(c, before) << h;
        }
        // Idempotent writes on a host with VMs change nothing either.
        c.set_host_power(host, was_on);
        c.set_host_failed(host, false);
        EXPECT_EQ(c.hash(), before.hash()) << h;
        EXPECT_EQ(c, before) << h;
    }
    EXPECT_TRUE(c.verify_hash());
}

}  // namespace
}  // namespace mistral::cluster
