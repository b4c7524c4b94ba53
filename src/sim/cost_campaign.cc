#include "sim/cost_campaign.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "cluster/configuration.h"
#include "common/check.h"

namespace mistral::sim {

namespace {

using cluster::action_kind;

// Deploys the minimum replica set of both applications (plus one extra
// replica of `extra_tier` for the target app when >= 0) at equal caps, in a
// random feasible placement over the first `placeable_hosts` hosts.
cluster::configuration random_placement(const cluster::cluster_model& model,
                                        std::size_t placeable_hosts,
                                        fraction cap, int extra_tier, rng& r) {
    for (int attempt = 0; attempt < 64; ++attempt) {
        cluster::configuration config(model.vm_count(), model.host_count());
        for (std::size_t h = 0; h < placeable_hosts; ++h) {
            config.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
        }
        std::vector<std::size_t> order(placeable_hosts);
        for (std::size_t h = 0; h < placeable_hosts; ++h) order[h] = h;

        bool ok = true;
        for (std::size_t a = 0; a < model.app_count() && ok; ++a) {
            const app_id app{static_cast<std::int32_t>(a)};
            for (std::size_t t = 0; t < model.app(app).tier_count() && ok; ++t) {
                int want = model.app(app).tiers()[t].min_replicas;
                if (a == 0 && static_cast<int>(t) == extra_tier) ++want;
                int placed = 0;
                for (vm_id vm : model.tier_vms(app, t)) {
                    if (placed == want) break;
                    r.shuffle(order);
                    bool found = false;
                    for (std::size_t h : order) {
                        const host_id host{static_cast<std::int32_t>(h)};
                        // Packing-only check: replica minima are met only
                        // once the whole placement completes.
                        const bool fits =
                            cluster::fits(model, config, host, cap) &&
                            static_cast<int>(config.vms_on(host).size()) <
                                model.limits().max_vms_per_host &&
                            config.memory_sum(model, host) + model.vm(vm).memory_mb <=
                                model.hosts()[h].memory_mb -
                                    model.limits().dom0_memory_mb + 1e-9;
                        if (fits) {
                            config.deploy(vm, host, cap);
                            found = true;
                            break;
                        }
                    }
                    if (!found) { ok = false; break; }
                    ++placed;
                }
                if (placed != want) ok = false;
            }
        }
        if (ok) return config;
    }
    MISTRAL_CHECK_MSG(false, "cost campaign could not place VMs");
    return cluster::configuration{};  // unreachable
}

// First deployed VM of (app 0, tier); invalid id if none.
vm_id deployed_vm(const cluster::cluster_model& model,
                  const cluster::configuration& config, std::size_t tier) {
    for (vm_id vm : model.tier_vms(app_id{0}, tier)) {
        if (config.deployed(vm)) return vm;
    }
    return vm_id{};
}

vm_id dormant_vm(const cluster::cluster_model& model,
                 const cluster::configuration& config, std::size_t tier) {
    for (vm_id vm : model.tier_vms(app_id{0}, tier)) {
        if (!config.deployed(vm)) return vm;
    }
    return vm_id{};
}

std::optional<host_id> host_with_room(const cluster::cluster_model& model,
                                      const cluster::configuration& config,
                                      std::size_t placeable_hosts, fraction cap,
                                      host_id avoid) {
    for (std::size_t h = 0; h < placeable_hosts; ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        if (host == avoid) continue;
        if (cluster::fits(model, config, host, cap) &&
            static_cast<int>(config.vms_on(host).size()) <
                model.limits().max_vms_per_host) {
            return host;
        }
    }
    return std::nullopt;
}

struct adaptation_measurement {
    seconds duration = 0.0;
    std::vector<seconds> mean_rt;  // per app, during adaptation
    watts mean_power = 0.0;
};

// Drives the testbed until the submitted action completes, integrating the
// metered signals over the adapting portions of each probe window.
adaptation_measurement measure_adaptation(testbed& tb,
                                          const std::vector<req_per_sec>& rates,
                                          seconds probe_step) {
    adaptation_measurement out;
    out.mean_rt.assign(rates.size(), 0.0);
    double weight = 0.0;
    std::vector<double> rt_integral(rates.size(), 0.0);
    double power_integral = 0.0;
    while (tb.busy()) {
        const auto obs = tb.advance(probe_step, rates);
        const double w = obs.adapting_fraction * probe_step;
        out.duration += w;
        weight += w;
        for (std::size_t a = 0; a < rates.size(); ++a) {
            rt_integral[a] += obs.response_time[a] * w;
        }
        power_integral += obs.power * w;
    }
    if (weight > 0.0) {
        for (std::size_t a = 0; a < rates.size(); ++a) {
            out.mean_rt[a] = rt_integral[a] / weight;
        }
        out.mean_power = power_integral / weight;
    }
    return out;
}

// Hosts touched by the action (for the colocation rule).
std::vector<host_id> affected_hosts(const cluster::configuration& config,
                                    const cluster::action& a) {
    std::vector<host_id> out;
    std::visit(
        [&](const auto& x) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, cluster::migrate>) {
                out = {config.placement(x.vm)->host, x.to};
            } else if constexpr (std::is_same_v<T, cluster::add_replica>) {
                out = {x.to};
            } else if constexpr (std::is_same_v<T, cluster::remove_replica> ||
                                 std::is_same_v<T, cluster::increase_cpu> ||
                                 std::is_same_v<T, cluster::decrease_cpu>) {
                out = {config.placement(x.vm)->host};
            } else if constexpr (std::is_same_v<T, cluster::power_on> ||
                                 std::is_same_v<T, cluster::power_off>) {
                out = {x.host};
            }
        },
        a);
    return out;
}

bool background_colocated(const cluster::cluster_model& model,
                          const cluster::configuration& config,
                          const std::vector<host_id>& hosts) {
    for (const auto& desc : model.vms()) {
        if (desc.app != app_id{1}) continue;
        const auto& p = config.placement(desc.vm);
        if (!p) continue;
        if (std::find(hosts.begin(), hosts.end(), p->host) != hosts.end()) return true;
    }
    return false;
}

}  // namespace

cost::cost_table run_cost_campaign(const apps::application_spec& spec,
                                   const campaign_options& options) {
    MISTRAL_CHECK(!options.workloads.empty());
    MISTRAL_CHECK(options.trials >= 1);
    cost::cost_table table;

    // One spare host beyond the placeable set hosts nothing and serves the
    // power-cycling experiments.
    const std::size_t placeable = options.host_count;
    std::vector<apps::application_spec> app_specs = {spec, spec};
    const cluster::cluster_model model(cluster::uniform_hosts(placeable + 1),
                                       std::move(app_specs));

    // One experiment per action kind × tier (where the spec admits it), each
    // repeated over the workload grid and `trials` random placements.
    struct experiment {
        action_kind kind;
        std::size_t tier;
    };
    std::vector<experiment> experiments;
    for (std::size_t t = 0; t < spec.tier_count(); ++t) {
        experiments.push_back({action_kind::migrate, t});
        experiments.push_back({action_kind::increase_cpu, t});
        experiments.push_back({action_kind::decrease_cpu, t});
        if (spec.tiers()[t].max_replicas > spec.tiers()[t].min_replicas) {
            experiments.push_back({action_kind::add_replica, t});
            experiments.push_back({action_kind::remove_replica, t});
        }
    }
    experiments.push_back({action_kind::power_on, 0});
    experiments.push_back({action_kind::power_off, 0});

    for (const req_per_sec w : options.workloads) {
        for (int trial = 0; trial < options.trials; ++trial) {
            for (const auto& exp : experiments) {
                const std::uint64_t exp_seed =
                    options.seed * 1000003ULL +
                    static_cast<std::uint64_t>(trial) * 10007ULL +
                    static_cast<std::uint64_t>(w * 8.0) * 101ULL +
                    static_cast<std::uint64_t>(exp.kind) * 13ULL + exp.tier;
                rng r(exp_seed);

                const int extra_tier =
                    exp.kind == action_kind::remove_replica
                        ? static_cast<int>(exp.tier)
                        : -1;
                cluster::configuration config = random_placement(
                    model, placeable, options.equal_cap, extra_tier, r);
                const host_id spare{static_cast<std::int32_t>(placeable)};
                if (exp.kind == action_kind::power_off) {
                    config.set_host_power(spare, true);
                }

                // Build the concrete action for this experiment.
                std::optional<cluster::action> act;
                switch (exp.kind) {
                    case action_kind::migrate: {
                        const vm_id vm = deployed_vm(model, config, exp.tier);
                        const auto src = config.placement(vm)->host;
                        const auto dst = host_with_room(model, config, placeable,
                                                        options.equal_cap, src);
                        if (dst) act = cluster::migrate{vm, *dst};
                        break;
                    }
                    case action_kind::add_replica: {
                        const vm_id vm = dormant_vm(model, config, exp.tier);
                        const auto dst = host_with_room(
                            model, config, placeable, options.equal_cap, host_id{});
                        if (vm.valid() && dst) {
                            act = cluster::add_replica{vm, *dst, options.equal_cap};
                        }
                        break;
                    }
                    case action_kind::remove_replica: {
                        const vm_id vm = deployed_vm(model, config, exp.tier);
                        if (vm.valid()) act = cluster::remove_replica{vm};
                        break;
                    }
                    case action_kind::increase_cpu:
                        act = cluster::increase_cpu{deployed_vm(model, config, exp.tier)};
                        break;
                    case action_kind::decrease_cpu:
                        act = cluster::decrease_cpu{deployed_vm(model, config, exp.tier)};
                        break;
                    case action_kind::power_on:
                        act = cluster::power_on{spare};
                        break;
                    case action_kind::power_off:
                        act = cluster::power_off{spare};
                        break;
                }
                if (!act || !cluster::applicable(model, config, *act)) continue;

                testbed_options tb_opts = options.testbed;
                tb_opts.seed = exp_seed ^ 0xabcdULL;
                testbed tb(model, config, tb_opts);
                const std::vector<req_per_sec> rates = {w, w};

                tb.advance(options.warmup, rates);
                const auto steady = tb.advance(options.steady_window, rates);

                const auto touched = affected_hosts(config, *act);
                const bool colocated = background_colocated(model, config, touched);

                tb.submit({*act});
                const auto adapt =
                    measure_adaptation(tb, rates, options.probe_step);

                cost::cost_entry entry;
                entry.duration = adapt.duration;
                entry.delta_rt_target =
                    std::max(0.0, adapt.mean_rt[0] - steady.response_time[0]);
                entry.delta_rt_colocated =
                    colocated
                        ? std::max(0.0, adapt.mean_rt[1] - steady.response_time[1])
                        : 0.0;
                entry.delta_power = adapt.mean_power - steady.power;
                table.add_measurement(exp.kind, exp.tier, w, entry);
            }
        }
    }
    return table;
}

}  // namespace mistral::sim
