// Differential tests for the search's incremental child drafting
// (core/drafting.h): over seeded random walks of enumerate_actions → apply,
// the incrementally maintained overbooked-host count must give exactly
// cluster::is_candidate's answer, and the per-decision cost table must give
// exactly cost_table::lookup's entries — including the throw on a missing
// measurement. Walks vary the cluster size (2–16 hosts), the action menu
// (with and without host power actions), failed hosts, and the app_hosts /
// host_scope lenses. Two more primitives of the search are checked the same
// way: cluster::apply_in_place against cluster::apply, and the dedup table
// against std::unordered_map<configuration, double>.
#include "core/drafting.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/rubis.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/search.h"

namespace mistral::core {
namespace {

using cluster::action;
using cluster::configuration;

// RUBiS apps; `web_replicas` > 1 lets the web tier replicate, so that walks
// offer add_replica on it (stock RUBiS keeps exactly one web replica).
cluster::cluster_model make_model(std::size_t hosts, std::size_t apps,
                                  int web_replicas = 1) {
    std::vector<apps::application_spec> specs;
    for (std::size_t a = 0; a < apps; ++a) {
        const auto stock = apps::rubis_browsing("R" + std::to_string(a));
        auto tiers = stock.tiers();
        tiers[0].max_replicas = web_replicas;
        specs.emplace_back(stock.name(), std::move(tiers), stock.transactions(),
                           stock.target_response_time(0.0));
    }
    return cluster::cluster_model(cluster::uniform_hosts(hosts), std::move(specs));
}

// Every tier's first replica on hosts round-robin, all hosts on: valid for
// apps ≤ hosts (three 200 MB VMs per app, four slots per host).
configuration start_config(const cluster::cluster_model& m) {
    configuration c(m.vm_count(), m.host_count());
    for (std::size_t h = 0; h < m.host_count(); ++h) {
        c.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
    }
    std::size_t next = 0;
    for (std::size_t a = 0; a < m.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < m.app(app).tier_count(); ++t) {
            c.deploy(m.tier_vms(app, t)[0],
                     host_id{static_cast<std::int32_t>(next++ % m.host_count())}, 0.4);
        }
    }
    return c;
}

// The paper's cost table without any add_replica measurement on any tier:
// looking one up must throw, while every other kind still resolves. (A table
// missing only some tiers of a kind falls back to another tier of it.)
cost::cost_table table_without_add_replica() {
    cost::cost_table out;
    cost::cost_table::paper_defaults().for_each_sample(
        [&](cluster::action_kind kind, std::size_t tier, req_per_sec w,
            const cost::cost_entry& e) {
            if (kind == cluster::action_kind::add_replica) return;
            out.add_measurement(kind, tier, w, e);
        });
    return out;
}

// The lenses' meaning, spelled out independently of action_allowed.
bool reference_allowed(const cluster::cluster_model& m, const search_options& o,
                       const configuration& c, const action& a) {
    std::optional<host_id> from, to, power;
    std::optional<app_id> app;
    std::visit(
        [&](const auto& x) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, cluster::power_on> ||
                          std::is_same_v<T, cluster::power_off>) {
                power = x.host;
            } else {
                app = m.vm(x.vm).app;
                if constexpr (std::is_same_v<T, cluster::migrate>) {
                    from = c.placement(x.vm)->host;
                    to = x.to;
                } else if constexpr (std::is_same_v<T, cluster::add_replica>) {
                    to = x.to;
                } else {
                    from = c.placement(x.vm)->host;
                }
            }
        },
        a);
    if (!o.app_hosts.empty() && to && !o.app_hosts[app->index()][to->index()]) {
        return false;
    }
    if (!o.host_scope.empty()) {
        for (const auto& h : {from, to, power}) {
            if (h && !o.host_scope[h->index()]) return false;
        }
    }
    return true;
}

bool same_entry(const cost::cost_entry& a, const cost::cost_entry& b) {
    return a.duration == b.duration && a.delta_rt_target == b.delta_rt_target &&
           a.delta_rt_colocated == b.delta_rt_colocated &&
           a.delta_power == b.delta_power;
}

struct walk_setup {
    std::size_t hosts = 4;
    bool host_power = true;
    bool fail_host = false;
    bool pools = false;
    bool scope = false;
    bool cost_gap = false;
};

// Checks every allowed action at every step of a seeded walk, then follows
// one of them. Returns the number of actions checked; `*missing` counts those
// whose cost lookup threw.
std::size_t run_walk(const walk_setup& w, std::uint64_t seed, int steps,
                     std::size_t* missing = nullptr) {
    rng r(seed);
    const std::size_t apps = std::max<std::size_t>(1, w.hosts / 2);
    const auto model = make_model(w.hosts, apps, w.cost_gap ? 2 : 1);
    auto config = start_config(model);
    if (w.fail_host) {
        // Crash the last host: evacuate it, then mark it failed.
        const host_id h{static_cast<std::int32_t>(w.hosts - 1)};
        for (const vm_id vm : config.vms_on(h)) {
            config.deploy(vm, host_id{0}, config.placement(vm)->cpu_cap);
        }
        config.set_host_failed(h, true);
    }
    EXPECT_TRUE(cluster::structurally_valid(model, config));

    search_options opts;
    opts.menu.host_power = w.host_power;
    if (w.pools) {
        opts.app_hosts.assign(apps, std::vector<bool>(w.hosts, false));
        for (std::size_t a = 0; a < apps; ++a) {
            for (std::size_t h = 0; h < w.hosts; ++h) {
                opts.app_hosts[a][h] = r.uniform() < 0.7;
            }
        }
    }
    if (w.scope) {
        opts.host_scope.assign(w.hosts, false);
        for (std::size_t h = 0; h < w.hosts; ++h) {
            opts.host_scope[h] = r.uniform() < 0.75;
        }
    }

    std::vector<req_per_sec> rates;
    for (std::size_t a = 0; a < apps; ++a) rates.push_back(r.uniform(5.0, 110.0));
    const auto table = w.cost_gap ? table_without_add_replica()
                                  : cost::cost_table::paper_defaults();
    decision_costs costs(model, table, rates);

    std::size_t overbooked = overbooked_hosts(model, config);
    EXPECT_EQ(overbooked == 0, cluster::is_candidate(model, config));
    std::size_t checked = 0;
    for (int step = 0; step < steps; ++step) {
        std::vector<action> acts;
        for (const auto& a : cluster::enumerate_actions(model, config, opts.menu)) {
            const bool allowed = action_allowed(model, opts, config, a);
            EXPECT_EQ(allowed, reference_allowed(model, opts, config, a))
                << cluster::to_string(model, a);
            if (allowed) acts.push_back(a);
        }
        if (acts.empty()) break;
        std::vector<std::size_t> child_overbooked;
        std::vector<configuration> children;
        for (const auto& a : acts) {
            const auto label = cluster::to_string(model, a);
            auto child = cluster::apply(model, config, a);
            const auto touched = affected_hosts(config, a);
            const std::size_t n =
                overbooked_after(model, config, overbooked, child, touched);
            EXPECT_EQ(n, overbooked_hosts(model, child)) << label;
            EXPECT_EQ(n == 0, cluster::is_candidate(model, child)) << label;
            EXPECT_TRUE(cluster::structurally_valid(model, child)) << label;

            std::optional<cost::cost_entry> expected;
            try {
                expected = table.lookup(model, a, rates);
            } catch (const invariant_error&) {
            }
            if (expected) {
                EXPECT_TRUE(same_entry(costs.lookup(a), *expected)) << label;
            } else {
                EXPECT_TRUE(w.cost_gap) << label;
                EXPECT_THROW((void)costs.lookup(a), invariant_error) << label;
                if (missing) ++*missing;
            }
            child_overbooked.push_back(n);
            children.push_back(std::move(child));
            ++checked;
        }
        const auto pick = r.uniform_index(acts.size());
        config = std::move(children[pick]);
        overbooked = child_overbooked[pick];
        if (::testing::Test::HasFailure()) break;
    }
    return checked;
}

TEST(Drafting, IncrementalCandidacyAndCostsMatchFromScratch) {
    std::size_t checked = 0;
    std::uint64_t seed = 1;
    for (const std::size_t hosts : {2u, 3u, 4u, 8u, 16u}) {
        for (const bool host_power : {true, false}) {
            for (const bool fail_host : {false, true}) {
                const walk_setup w{.hosts = hosts,
                                   .host_power = host_power,
                                   .fail_host = fail_host};
                checked += run_walk(w, seed++, hosts >= 16 ? 12 : 40);
                ASSERT_FALSE(HasFailure()) << "hosts " << hosts << " power "
                                           << host_power << " failed " << fail_host;
            }
        }
    }
    EXPECT_GT(checked, 10000u);
}

TEST(Drafting, LensesKeepIncrementalCandidacyExact) {
    std::uint64_t seed = 101;
    for (const std::size_t hosts : {3u, 6u, 12u}) {
        for (const bool pools : {false, true}) {
            for (const bool scope : {false, true}) {
                if (!pools && !scope) continue;
                const walk_setup w{.hosts = hosts, .fail_host = hosts == 6,
                                   .pools = pools, .scope = scope};
                (void)run_walk(w, seed++, 30);
                ASSERT_FALSE(HasFailure()) << "hosts " << hosts << " pools "
                                           << pools << " scope " << scope;
            }
        }
    }
}

// A kind without any measurement throws at the first action that needs it
// and at every later one; entries of other kinds are unaffected.
TEST(Drafting, MissingCostEntryThrowsAtEveryUse) {
    const auto model = make_model(4, 2, /*web_replicas=*/2);
    const auto table = table_without_add_replica();
    const std::vector<req_per_sec> rates = {40.0, 70.0};
    decision_costs costs(model, table, rates);
    const action add_web = cluster::add_replica{
        model.tier_vms(app_id{0}, 0).back(), host_id{2}, 0.2};
    const action add_app = cluster::add_replica{
        model.tier_vms(app_id{1}, 1).back(), host_id{2}, 0.2};
    const action move_app = cluster::migrate{model.tier_vms(app_id{1}, 1)[0], host_id{2}};
    EXPECT_THROW((void)table.lookup(model, add_web, rates), invariant_error);
    EXPECT_THROW((void)costs.lookup(add_web), invariant_error);
    EXPECT_THROW((void)costs.lookup(add_web), invariant_error);
    EXPECT_THROW((void)costs.lookup(add_app), invariant_error);
    EXPECT_TRUE(
        same_entry(costs.lookup(move_app), table.lookup(model, move_app, rates)));
    EXPECT_THROW((void)costs.lookup(add_web), invariant_error);

    // Walks with the gap table meet that throw at every step where some
    // replica is dormant.
    std::size_t missing = 0;
    for (const std::uint64_t seed : {7ull, 8ull}) {
        (void)run_walk({.hosts = 4, .cost_gap = true}, seed, 20, &missing);
        ASSERT_FALSE(HasFailure());
    }
    EXPECT_GT(missing, 0u);
}

// Entries depend on the app only through its rate: two apps whose VMs share a
// tier resolve separately, and power actions share one entry.
TEST(Drafting, CostTableKeysOnKindAppAndTier) {
    const auto model = make_model(4, 2);
    const auto table = cost::cost_table::paper_defaults();
    const std::vector<req_per_sec> rates = {15.0, 95.0};
    decision_costs costs(model, table, rates);
    const action m0 = cluster::migrate{model.tier_vms(app_id{0}, 2)[0], host_id{3}};
    const action m1 = cluster::migrate{model.tier_vms(app_id{1}, 2)[0], host_id{3}};
    EXPECT_TRUE(same_entry(costs.lookup(m0), table.lookup(model, m0, rates)));
    EXPECT_TRUE(same_entry(costs.lookup(m1), table.lookup(model, m1, rates)));
    EXPECT_FALSE(same_entry(costs.lookup(m0), costs.lookup(m1)));
    const action on = cluster::power_on{host_id{1}};
    const action off = cluster::power_off{host_id{2}};
    EXPECT_TRUE(same_entry(costs.lookup(on), table.lookup(model, on, rates)));
    EXPECT_TRUE(same_entry(costs.lookup(off), table.lookup(model, off, rates)));
}

TEST(Drafting, AffectedHostsNameTheTouchedHosts) {
    const auto model = make_model(4, 2);
    const auto c = start_config(model);
    const vm_id vm = model.tier_vms(app_id{0}, 1)[0];
    const host_id at = c.placement(vm)->host;
    const auto mig = affected_hosts(c, cluster::migrate{vm, host_id{3}});
    ASSERT_EQ(mig.count, 2u);
    EXPECT_EQ(mig.hosts[0], at);
    EXPECT_EQ(mig.hosts[1], host_id{3});
    EXPECT_EQ(affected_hosts(c, cluster::increase_cpu{vm}).count, 1u);
    EXPECT_EQ(affected_hosts(c, cluster::increase_cpu{vm}).hosts[0], at);
    EXPECT_TRUE(affected_hosts(c, cluster::power_off{host_id{3}}).empty());
}

// A random action of a random kind, applicable or not.
action random_action(const cluster::cluster_model& m, rng& r) {
    const vm_id vm{static_cast<std::int32_t>(r.uniform_index(m.vm_count()))};
    const host_id h{static_cast<std::int32_t>(r.uniform_index(m.host_count()))};
    switch (r.uniform_index(7)) {
        case 0: return cluster::increase_cpu{vm};
        case 1: return cluster::decrease_cpu{vm};
        case 2: return cluster::add_replica{vm, h, m.tier_spec_of(vm).min_cpu_cap};
        case 3: return cluster::remove_replica{vm};
        case 4: return cluster::migrate{vm, h};
        case 5: return cluster::power_on{h};
        default: return cluster::power_off{h};
    }
}

// apply_in_place on a reused scratch must give exactly apply's result, hash
// included, for every enumerated action of every kind; both must reject an
// inapplicable action, and apply_in_place must then leave its argument as it
// was.
TEST(Drafting, ApplyInPlaceMatchesApply) {
    std::array<std::size_t, 7> applied{};
    std::size_t rejected = 0;
    std::uint64_t seed = 301;
    for (const std::size_t hosts : {2u, 4u, 8u}) {
        rng r(seed++);
        const auto model = make_model(hosts, std::max<std::size_t>(1, hosts / 2),
                                      /*web_replicas=*/2);
        auto config = start_config(model);
        configuration scratch;
        for (int step = 0; step < 60; ++step) {
            const auto acts = cluster::enumerate_actions(model, config);
            ASSERT_FALSE(acts.empty());
            for (const auto& a : acts) {
                const auto label = cluster::to_string(model, a);
                const auto expected = cluster::apply(model, config, a);
                scratch = config;
                cluster::apply_in_place(model, scratch, a);
                EXPECT_TRUE(scratch == expected) << label;
                EXPECT_EQ(scratch.hash(), expected.hash()) << label;
                EXPECT_TRUE(scratch.verify_hash()) << label;
                EXPECT_TRUE(expected.verify_hash()) << label;
                ++applied[static_cast<std::size_t>(cluster::kind_of(a))];
            }
            for (int probe = 0; probe < 8; ++probe) {
                const action a = random_action(model, r);
                if (cluster::applicable(model, config, a)) continue;
                const auto label = cluster::to_string(model, a);
                EXPECT_THROW((void)cluster::apply(model, config, a), invariant_error)
                    << label;
                scratch = config;
                EXPECT_THROW(cluster::apply_in_place(model, scratch, a), invariant_error)
                    << label;
                EXPECT_TRUE(scratch == config) << label;
                ++rejected;
            }
            config = cluster::apply(model, config, acts[r.uniform_index(acts.size())]);
            ASSERT_FALSE(HasFailure()) << hosts << " hosts, step " << step;
        }
    }
    for (std::size_t k = 0; k < applied.size(); ++k) {
        EXPECT_GT(applied[k], 0u)
            << cluster::to_string(static_cast<cluster::action_kind>(k));
    }
    EXPECT_GT(rejected, 100u);
}

// The dedup table gives std::unordered_map<configuration, double>'s answers
// to every find and insert of a seeded walk that keeps revisiting
// configurations (it jumps back to a known one on 40 % of its steps), under
// the search's record rule: a revisit replaces the best utility only when it
// beats it by more than 1e-12. The table starts at its smallest size, so the
// walk also grows it many times over and crowds its probe sequences.
TEST(Drafting, DedupTableMatchesUnorderedMap) {
    std::size_t revisits = 0;
    for (const std::uint64_t seed : {401ull, 402ull, 403ull}) {
        rng r(seed);
        const auto model = make_model(3, 1, /*web_replicas=*/2);
        std::vector<configuration> reps;  // a vertex store: one per insertion
        auto config_of = [&](std::size_t i) -> const configuration& { return reps[i]; };
        dedup_table table(0);
        std::unordered_map<configuration, double> reference;
        auto config = start_config(model);
        for (int step = 0; step < 3000; ++step) {
            const double u = r.uniform(-1.0, 1.0);
            const auto it = reference.find(config);
            const auto* found = table.find(config, config_of);
            ASSERT_EQ(found != nullptr, it != reference.end()) << "step " << step;
            if (found != nullptr) {
                EXPECT_EQ(found->best, it->second);
                EXPECT_TRUE(reps[found->rep] == config);
                ++revisits;
            }
            const auto [slot, inserted] =
                table.try_emplace(config, reps.size(), u, config_of);
            const auto [ref, ref_inserted] = reference.emplace(config, u);
            ASSERT_EQ(inserted, ref_inserted) << "step " << step;
            if (inserted) {
                reps.push_back(config);
            } else if (u > slot->best + 1e-12) {
                slot->best = u;
                ref->second = u;
            }
            EXPECT_EQ(slot->best, ref->second);
            ASSERT_EQ(table.size(), reference.size());
            if (r.uniform() < 0.4) {
                config = reps[r.uniform_index(reps.size())];  // a known one
            } else {
                const auto acts = cluster::enumerate_actions(model, config);
                config =
                    cluster::apply(model, config, acts[r.uniform_index(acts.size())]);
            }
        }
        EXPECT_GT(reference.size(), 64u);  // grown past the initial 16 slots
        for (const auto& [c, best] : reference) {
            const auto* found = table.find(c, config_of);
            ASSERT_NE(found, nullptr);
            EXPECT_EQ(found->best, best);
        }
    }
    EXPECT_GT(revisits, 1000u);
}

}  // namespace
}  // namespace mistral::core
