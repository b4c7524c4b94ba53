#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.h"

namespace mistral::core {

namespace {

using cluster::action;
using cluster::configuration;
using cluster::cluster_model;

// Emits enough increase/decrease steps to take `vm` from its current cap to
// `target` (caps are step-quantized by construction).
void emit_cap_steps(const cluster_model& model, configuration& config, vm_id vm,
                    fraction target, bool decreases_only, bool increases_only,
                    std::vector<action>& plan) {
    const fraction step = model.limits().cpu_step;
    for (int guard = 0; guard < 64; ++guard) {
        const fraction cap = config.placement(vm)->cpu_cap;
        if (std::abs(cap - target) < step / 2.0) return;
        action a;
        if (cap < target) {
            if (decreases_only) return;
            a = cluster::increase_cpu{vm};
        } else {
            if (increases_only) return;
            a = cluster::decrease_cpu{vm};
        }
        if (!applicable(model, config, a)) return;
        config = apply(model, config, a);
        plan.push_back(a);
    }
}

struct move {
    vm_id vm;          // deployed VM to relocate (invalid => add a replica)
    host_id to;
    fraction target_cap;
    app_id app;        // tier identity, for the add-replica case
    std::size_t tier = 0;
};

}  // namespace

std::vector<action> plan_transition(const cluster_model& model,
                                    const configuration& from,
                                    const configuration& to) {
    std::vector<action> plan;
    configuration cur = from;
    auto emit = [&](const action& a) -> bool {
        if (!applicable(model, cur, a)) return false;
        cur = apply(model, cur, a);
        plan.push_back(a);
        return true;
    };

    // 1. Power on every host the target uses.
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        if (to.host_on(host) && !cur.host_on(host)) emit(cluster::power_on{host});
    }

    // 2. Per-tier reconciliation into kept VMs, pending moves, removals, and
    //    additions.
    std::vector<move> pending_moves;
    std::vector<std::pair<vm_id, fraction>> kept;  // cap retargets for in-place VMs
    std::vector<vm_id> removals;
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            const auto& vms = model.tier_vms(app, t);
            // Wanted placements in the target (multiset of host/cap).
            std::vector<std::pair<host_id, fraction>> wanted;
            for (vm_id vm : vms) {
                if (const auto& p = to.placement(vm)) wanted.push_back({p->host, p->cpu_cap});
            }
            // Current deployments.
            std::vector<vm_id> current;
            for (vm_id vm : vms) {
                if (cur.deployed(vm)) current.push_back(vm);
            }
            // Keep VMs already on a wanted host.
            std::vector<vm_id> unmatched;
            for (vm_id vm : current) {
                const auto host = cur.placement(vm)->host;
                auto it = std::find_if(wanted.begin(), wanted.end(),
                                       [&](const auto& w) { return w.first == host; });
                if (it != wanted.end()) {
                    kept.push_back({vm, it->second});
                    wanted.erase(it);
                } else {
                    unmatched.push_back(vm);
                }
            }
            // Pair the rest: moves while both sides have entries, then
            // removals / additions for the imbalance.
            std::size_t i = 0;
            for (; i < unmatched.size() && i < wanted.size(); ++i) {
                pending_moves.push_back(
                    {unmatched[i], wanted[i].first, wanted[i].second, app, t});
            }
            for (std::size_t j = i; j < unmatched.size(); ++j) {
                removals.push_back(unmatched[j]);
            }
            for (std::size_t j = i; j < wanted.size(); ++j) {
                // A dormant VM of this tier will carry the new replica.
                pending_moves.push_back(
                    {vm_id{}, wanted[j].first, wanted[j].second, app, t});
            }
        }
    }

    // 2.5 Relief first: cap increases that already fit their host's packing
    //     constraint execute in ~1 s and are what a scale-up needs *now* —
    //     they must not queue behind 90 s boots and minute-long migrations.
    for (const auto& [vm, cap] : kept) {
        for (int guard = 0; guard < 8; ++guard) {
            const fraction have = cur.placement(vm)->cpu_cap;
            if (have + model.limits().cpu_step / 2.0 >= cap) break;
            if (!cluster::fits(model, cur, cur.placement(vm)->host,
                               model.limits().cpu_step)) {
                break;  // would overbook; the post-move stage finishes the job
            }
            if (!emit(cluster::increase_cpu{vm})) break;
        }
    }

    // 3. Removals and cap decreases free room before anything moves in.
    for (vm_id vm : removals) emit(cluster::remove_replica{vm});
    for (const auto& [vm, cap] : kept) {
        emit_cap_steps(model, cur, vm, cap, /*decreases_only=*/true,
                       /*increases_only=*/false, plan);
    }
    for (const auto& m : pending_moves) {
        if (m.vm.valid()) {
            emit_cap_steps(model, cur, m.vm, m.target_cap, /*decreases_only=*/true,
                           /*increases_only=*/false, plan);
        }
    }

    // 4. Moves with deferral: retry blocked migrations/additions as slots
    //    free up; drop whatever never becomes feasible.
    std::vector<move> queue = pending_moves;
    bool progressed = true;
    while (!queue.empty() && progressed) {
        progressed = false;
        std::vector<move> blocked;
        for (const auto& m : queue) {
            bool ok = false;
            if (m.vm.valid()) {
                ok = emit(cluster::migrate{m.vm, m.to});
            } else {
                // Pick any dormant VM of the move's tier at plan time.
                for (vm_id vm : model.tier_vms(m.app, m.tier)) {
                    if (cur.deployed(vm)) continue;
                    ok = emit(cluster::add_replica{
                        vm, m.to, model.tier_spec_of(vm).min_cpu_cap});
                    break;
                }
            }
            if (ok) {
                progressed = true;
            } else {
                blocked.push_back(m);
            }
        }
        queue = std::move(blocked);
    }

    // 5. Raise caps to their targets now that placement has settled.
    for (const auto& [vm, cap] : kept) {
        emit_cap_steps(model, cur, vm, cap, /*decreases_only=*/false,
                       /*increases_only=*/true, plan);
    }
    for (const auto& desc : model.vms()) {
        const auto& pt = to.placement(desc.vm);
        const auto& pc = cur.placement(desc.vm);
        if (pt && pc && pc->host == pt->host) {
            emit_cap_steps(model, cur, desc.vm, pt->cpu_cap, false, false, plan);
        }
    }

    // 6. Power off hosts the target leaves empty (only if actually empty).
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        if (!to.host_on(host) && cur.host_on(host)) emit(cluster::power_off{host});
    }
    return plan;
}

configuration apply_plan(const cluster_model& model, configuration config,
                         const std::vector<action>& plan) {
    for (const auto& a : plan) config = apply(model, config, a);
    return config;
}

std::vector<action> plan_repair(const cluster_model& model,
                                const configuration& config) {
    std::vector<action> plan;
    configuration cur = config;
    auto emit = [&](const action& a) -> bool {
        if (!applicable(model, cur, a)) return false;
        cur = apply(model, cur, a);
        plan.push_back(a);
        return true;
    };
    // Roomiest healthy powered-on host that can take `vm` at `cap`; lowest
    // index wins ties so repairs replay deterministically.
    auto place = [&](vm_id vm, fraction cap) -> bool {
        std::optional<host_id> best;
        double best_free = -1.0;
        for (std::size_t h = 0; h < model.host_count(); ++h) {
            const host_id host{static_cast<std::int32_t>(h)};
            if (!cur.host_on(host)) continue;
            if (!applicable(model, cur, cluster::add_replica{vm, host, cap})) continue;
            const double free = model.limits().host_cpu_cap - cur.cap_sum(host);
            if (free > best_free + 1e-12) {
                best_free = free;
                best = host;
            }
        }
        if (!best) return false;
        return emit(cluster::add_replica{vm, *best, cap});
    };
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            const auto& tier = model.app(app).tiers()[t];
            int deployed = 0;
            for (vm_id vm : model.tier_vms(app, t)) {
                deployed += cur.deployed(vm) ? 1 : 0;
            }
            for (int deficit = tier.min_replicas - deployed; deficit > 0; --deficit) {
                vm_id dormant{};
                for (vm_id vm : model.tier_vms(app, t)) {
                    if (!cur.deployed(vm)) {
                        dormant = vm;
                        break;
                    }
                }
                if (!dormant.valid()) break;  // no spare replica VM exists
                if (place(dormant, tier.min_cpu_cap)) continue;
                // Nothing fits: bring up the first healthy powered-off host
                // and retry once.
                bool powered = false;
                for (std::size_t h = 0; h < model.host_count() && !powered; ++h) {
                    const host_id host{static_cast<std::int32_t>(h)};
                    if (cur.host_on(host) || cur.host_failed(host)) continue;
                    powered = emit(cluster::power_on{host});
                }
                if (!powered || !place(dormant, tier.min_cpu_cap)) break;
            }
        }
    }
    return plan;
}

std::vector<action> compress_plan(const cluster_model& model,
                                  const configuration& from,
                                  std::vector<action> plan) {
    // Prefix configurations c0..cn; for each position take the furthest
    // later position with an identical configuration and skip the detour.
    // Repeat until a pass makes no change (splices can expose new ones).
    bool changed = true;
    while (changed && !plan.empty()) {
        changed = false;
        std::vector<configuration> prefix = {from};
        prefix.reserve(plan.size() + 1);
        for (const auto& a : plan) {
            prefix.push_back(apply(model, prefix.back(), a));
        }
        for (std::size_t i = 0; i < prefix.size() && !changed; ++i) {
            for (std::size_t j = prefix.size(); j-- > i + 1 && !changed;) {
                if (prefix[j] == prefix[i]) {
                    plan.erase(plan.begin() + static_cast<std::ptrdiff_t>(i),
                               plan.begin() + static_cast<std::ptrdiff_t>(j));
                    changed = true;
                }
            }
        }
    }
    return plan;
}

}  // namespace mistral::core
