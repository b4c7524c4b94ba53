#include "core/perf_pwr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"

namespace mistral::core {

namespace {

using sizing = app_sizing;  // per-(app, tier) replicas + uniform cap

// Total CPU allocation of a sizing (the ρ in the gradient).
double total_allocation(const sizing& s) {
    double sum = 0.0;
    for (const auto& app : s) {
        for (const auto& t : app) sum += t.replicas * t.cap;
    }
    return sum;
}

// Worst-fit-decreasing bin packing of the sizing's replicas onto at most
// `host_limit` hosts, honouring any per-app host restriction. Returns the
// packed configuration, or nullopt when it does not fit.
std::optional<cluster::configuration> pack(
    const cluster::cluster_model& model, const sizing& s, std::size_t host_limit,
    const std::vector<std::vector<bool>>& app_hosts,
    const cluster::configuration* reference) {
    struct item {
        vm_id vm;
        std::size_t app;
        fraction cap;
        double memory;
    };
    std::vector<item> items;
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            const auto& vms = model.tier_vms(app, t);
            for (int r = 0; r < s[a][t].replicas; ++r) {
                items.push_back({vms[static_cast<std::size_t>(r)], a, s[a][t].cap,
                                 model.vm(vms[static_cast<std::size_t>(r)]).memory_mb});
            }
        }
    }
    std::sort(items.begin(), items.end(),
              [](const item& x, const item& y) { return x.cap > y.cap; });

    struct bin {
        bool open = false;
        fraction cap_free = 0.0;
        double mem_free = 0.0;
        int slots_free = 0;
    };
    std::vector<bin> bins(model.host_count());
    std::vector<std::vector<std::pair<vm_id, fraction>>> contents(model.host_count());
    const auto& limits = model.limits();
    std::size_t opened = 0;

    auto host_allowed = [&](std::size_t app, std::size_t h) {
        // A crashed host takes no load and cannot be booted.
        if (reference &&
            reference->host_failed(host_id{static_cast<std::int32_t>(h)})) {
            return false;
        }
        return app_hosts.empty() || app_hosts[app][h];
    };

    auto bin_fits = [&](std::size_t h, const item& it) {
        return bins[h].open && host_allowed(it.app, h) &&
               bins[h].cap_free + 1e-9 >= it.cap &&
               bins[h].mem_free + 1e-9 >= it.memory && bins[h].slots_free >= 1;
    };
    auto open_bin = [&](std::size_t h) {
        bins[h] = {true, limits.host_cpu_cap,
                   model.hosts()[h].memory_mb - limits.dom0_memory_mb,
                   limits.max_vms_per_host};
        ++opened;
    };
    auto reference_host = [&](vm_id vm) -> int {
        if (!reference) return -1;
        const auto& p = reference->placement(vm);
        return p ? p->host.value : -1;
    };

    for (const auto& it : items) {
        int best = -1;
        // Placement stability first: keep the VM where the reference has it
        // whenever that host is (or can be) open and fits.
        const int ref = reference_host(it.vm);
        if (ref >= 0) {
            const auto h = static_cast<std::size_t>(ref);
            if (!bins[h].open && opened < host_limit && host_allowed(it.app, h)) {
                open_bin(h);
            }
            if (bin_fits(h, it)) best = ref;
        }
        // Largest remaining space among used (allowed) hosts...
        for (std::size_t h = 0; best < 0 && h < bins.size(); ++h) {
            if (bin_fits(h, it)) best = static_cast<int>(h);
        }
        // ...otherwise open a new empty (allowed) host, if any remain;
        // prefer hosts the reference already has powered on (no boot).
        if (best < 0) {
            if (opened >= host_limit) return std::nullopt;
            for (int pass = 0; pass < 2 && best < 0; ++pass) {
                for (std::size_t h = 0; h < bins.size(); ++h) {
                    if (bins[h].open || !host_allowed(it.app, h)) continue;
                    const bool was_on =
                        reference && reference->host_on(host_id{
                                         static_cast<std::int32_t>(h)});
                    if (pass == 0 && reference && !was_on) continue;
                    open_bin(h);
                    best = static_cast<int>(h);
                    break;
                }
            }
            if (best < 0) return std::nullopt;
            if (!bin_fits(static_cast<std::size_t>(best), it)) return std::nullopt;
        }
        auto& b = bins[static_cast<std::size_t>(best)];
        b.cap_free -= it.cap;
        b.mem_free -= it.memory;
        b.slots_free -= 1;
        contents[static_cast<std::size_t>(best)].push_back({it.vm, it.cap});
    }

    cluster::configuration config(model.vm_count(), model.host_count());
    if (reference) {
        // Carry the failure marks so `ideal == current` can hold (and the
        // no-op fast path fire) while part of the cluster is down.
        for (std::size_t h = 0; h < model.host_count(); ++h) {
            const host_id host{static_cast<std::int32_t>(h)};
            if (reference->host_failed(host)) config.set_host_failed(host, true);
        }
    }
    for (std::size_t h = 0; h < bins.size(); ++h) {
        if (!bins[h].open) continue;
        const host_id host{static_cast<std::int32_t>(h)};
        config.set_host_power(host, true);
        for (const auto& [vm, cap] : contents[h]) config.deploy(vm, host, cap);
    }
    return config;
}

}  // namespace

perf_pwr_optimizer::perf_pwr_optimizer(const cluster::cluster_model& model,
                                       utility_model utility, perf_pwr_options options)
    : perf_pwr_optimizer(model, utility, options, nullptr) {}

perf_pwr_optimizer::perf_pwr_optimizer(const cluster::cluster_model& model,
                                       utility_model utility, perf_pwr_options options,
                                       std::shared_ptr<serial_evaluator> evaluator)
    : model_(&model),
      utility_(utility),
      options_(options),
      evaluator_(std::move(evaluator)) {
    if (options_.cap_step <= 0.0) options_.cap_step = model.limits().cpu_step;
    MISTRAL_CHECK(options_.max_gradient_iterations >= 1);
    if (!evaluator_) {
        evaluator_ = std::make_shared<serial_evaluator>(model, utility_, options_.lqn);
    }
}

perf_pwr_result perf_pwr_optimizer::optimize(
    const std::vector<req_per_sec>& rates,
    const cluster::configuration* reference) const {
    return run(rates, /*enforce_targets=*/false, reference);
}

perf_pwr_result perf_pwr_optimizer::optimize_meeting_targets(
    const std::vector<req_per_sec>& rates,
    const cluster::configuration* reference) const {
    return run(rates, /*enforce_targets=*/true, reference);
}

perf_pwr_result perf_pwr_optimizer::run(const std::vector<req_per_sec>& rates,
                                        bool enforce_targets,
                                        const cluster::configuration* reference) const {
    const auto& model = *model_;
    MISTRAL_CHECK(rates.size() == model.app_count());
    auto& engine = *evaluator_;
    engine.begin_decision(rates);

    // Start: maximum replication, maximum capacities.
    sizing s(model.app_count());
    double min_alloc = 0.0;
    int min_vms = 0;
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const auto& app = model.app(app_id{static_cast<std::int32_t>(a)});
        s[a].resize(app.tier_count());
        for (std::size_t t = 0; t < app.tier_count(); ++t) {
            const auto& tier = app.tiers()[t];
            s[a][t] = {tier.max_replicas, tier.max_cpu_cap};
            min_alloc += tier.min_replicas * tier.min_cpu_cap;
            min_vms += tier.min_replicas;
        }
    }
    const auto& limits = model.limits();
    const std::size_t min_hosts = std::max<std::size_t>(
        {1,
         static_cast<std::size_t>(std::ceil(min_alloc / limits.host_cpu_cap - 1e-9)),
         static_cast<std::size_t>(std::ceil(
             static_cast<double>(min_vms) / limits.max_vms_per_host - 1e-9))});

    perf_pwr_result best;
    best.utility_rate = -std::numeric_limits<double>::infinity();

    int iterations_left = options_.max_gradient_iterations;
    for (std::size_t hosts = model.host_count(); hosts + 1 > min_hosts; --hosts) {
        // Shrink the sizing until it packs on `hosts` hosts (or give up).
        std::optional<cluster::configuration> packed;
        while (iterations_left-- > 0) {
            packed = pack(model, s, hosts, options_.app_hosts, reference);
            if (packed) break;

            // Gradient step: among all single reductions, take the one that
            // frees the most CPU per unit of performance utility lost.
            // candidates[0] is the base sizing itself.
            std::vector<sizing> candidates;
            candidates.push_back(s);
            for (std::size_t a = 0; a < model.app_count(); ++a) {
                const auto& app = model.app(app_id{static_cast<std::int32_t>(a)});
                for (std::size_t t = 0; t < app.tier_count(); ++t) {
                    const auto& tier = app.tiers()[t];
                    if (s[a][t].cap - options_.cap_step >= tier.min_cpu_cap - 1e-9) {
                        sizing c = s;
                        c[a][t].cap -= options_.cap_step;
                        candidates.push_back(std::move(c));
                    }
                    if (s[a][t].replicas > tier.min_replicas) {
                        sizing c = s;
                        c[a][t].replicas -= 1;
                        candidates.push_back(std::move(c));
                    }
                }
            }
            std::vector<isolated_perf> evals;
            evals.reserve(candidates.size());
            for (const auto& c : candidates) evals.push_back(engine.evaluate_isolated(c));
            const auto& base = evals[0];
            const double base_alloc = total_allocation(s);
            double best_grad = -std::numeric_limits<double>::infinity();
            std::size_t best_candidate = 0;  // 0 = none (the base itself)
            for (std::size_t i = 1; i < candidates.size(); ++i) {
                if (enforce_targets && !evals[i].meets_all_targets) continue;
                const double dalloc = base_alloc - total_allocation(candidates[i]);
                const double dutil = base.perf_rate - evals[i].perf_rate;
                const double grad = dalloc / (dutil + 1e-9);
                if (grad > best_grad) {
                    best_grad = grad;
                    best_candidate = i;
                }
            }
            if (best_candidate == 0) break;  // nothing left to shrink
            s = std::move(candidates[best_candidate]);
        }
        if (!packed) break;  // cannot fit on this few hosts; fewer is hopeless

        // Score the packed configuration with the real placement and power.
        const auto se = engine.evaluate(*packed);
        if (enforce_targets && !se.meets_targets) break;
        if (se.rate > best.utility_rate) {
            best.feasible = true;
            best.ideal = *packed;
            best.utility_rate = se.rate;
            best.perf_rate = se.perf_rate;
            best.power_rate = se.power_rate;
            best.power = se.power;
            best.response_times = se.response_times;
            best.hosts_used = packed->active_host_count();
        }
        if (iterations_left <= 0) break;
    }
    if (!best.feasible) best.utility_rate = 0.0;
    return best;
}

}  // namespace mistral::core
