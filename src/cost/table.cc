#include "cost/table.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace mistral::cost {

void cost_table::add_measurement(cluster::action_kind kind, std::size_t tier,
                                 req_per_sec workload, const cost_entry& entry) {
    MISTRAL_CHECK(workload >= 0.0);
    MISTRAL_CHECK(entry.duration >= 0.0);
    samples_[{kind, tier}].push_back({workload, entry});
}

bool cost_table::has(cluster::action_kind kind, std::size_t tier) const {
    const auto it = samples_.find({kind, tier});
    return it != samples_.end() && !it->second.empty();
}

cost_entry cost_table::lookup(cluster::action_kind kind, std::size_t tier,
                              req_per_sec workload) const {
    auto it = samples_.find({kind, tier});
    if (it == samples_.end() || it->second.empty()) {
        // Tier-specific data missing: fall back to the tier-0 table for the
        // same action kind (host power and CPU tuning live there anyway), or
        // failing that to the lowest tier measured for it. A measured
        // campaign skips add_replica on fixed-size tiers, yet a host crash
        // can still force re-adding such a tier's lost replica.
        it = samples_.lower_bound({kind, std::size_t{0}});
        if (it != samples_.end() && it->first.first != kind) it = samples_.end();
    }
    MISTRAL_CHECK_MSG(it != samples_.end() && !it->second.empty(),
                      "no cost measurements for " << cluster::to_string(kind)
                                                  << " tier " << tier);
    // Closest measured workload, then the mean of its samples.
    double best = std::numeric_limits<double>::infinity();
    req_per_sec best_key = 0.0;
    for (const auto& [w, entry] : it->second) {
        const double d = std::abs(w - workload);
        if (d < best) {
            best = d;
            best_key = w;
        }
    }
    cost_entry sum;
    std::size_t n = 0;
    for (const auto& [w, entry] : it->second) {
        if (std::abs(w - best_key) > 1e-9) continue;
        sum.duration += entry.duration;
        sum.delta_rt_target += entry.delta_rt_target;
        sum.delta_rt_colocated += entry.delta_rt_colocated;
        sum.delta_power += entry.delta_power;
        ++n;
    }
    const auto scale = 1.0 / static_cast<double>(n);
    sum.duration *= scale;
    sum.delta_rt_target *= scale;
    sum.delta_rt_colocated *= scale;
    sum.delta_power *= scale;
    return sum;
}

cost_entry cost_table::lookup(const cluster::cluster_model& model,
                              const cluster::action& a,
                              const std::vector<req_per_sec>& rates) const {
    MISTRAL_CHECK(rates.size() == model.app_count());
    const auto kind = cluster::kind_of(a);
    if (kind == cluster::action_kind::power_on ||
        kind == cluster::action_kind::power_off) {
        double total = 0.0;
        for (double r : rates) total += r;
        return lookup(kind, 0, total);
    }
    const vm_id vm = std::visit(
        [](const auto& x) -> vm_id {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, cluster::power_on> ||
                          std::is_same_v<T, cluster::power_off>) {
                return vm_id{};
            } else {
                return x.vm;
            }
        },
        a);
    const auto& desc = model.vm(vm);
    return lookup(kind, desc.tier, rates[desc.app.index()]);
}

std::vector<req_per_sec> cost_table::workloads(cluster::action_kind kind,
                                               std::size_t tier) const {
    std::vector<req_per_sec> out;
    const auto it = samples_.find({kind, tier});
    if (it == samples_.end()) return out;
    for (const auto& [w, entry] : it->second) {
        if (std::find_if(out.begin(), out.end(), [&](double x) {
                return std::abs(x - w) < 1e-9;
            }) == out.end()) {
            out.push_back(w);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

void cost_table::for_each_sample(
    const std::function<void(cluster::action_kind, std::size_t, req_per_sec,
                             const cost_entry&)>& fn) const {
    for (const auto& [key, samples] : samples_) {
        for (const auto& [workload, entry] : samples) {
            fn(key.first, key.second, workload, entry);
        }
    }
}

cost_table cost_table::paper_defaults() {
    using cluster::action_kind;
    cost_table t;
    // Fig. 7: sessions 100..800 at ~8 s per session cycle → 12.5..100 req/s.
    // Tier indices follow the RUBiS factory: 0 = Apache, 1 = Tomcat, 2 = MySQL.
    for (int sessions = 100; sessions <= 800; sessions += 100) {
        const double frac = (sessions - 100) / 700.0;  // 0 at 100, 1 at 800
        const req_per_sec w = sessions / 8.0;
        // Migration delta power ~8 % → 17 % of a ~150 W affected-host pair.
        const watts dpwr = (0.08 + 0.09 * frac) * 150.0;
        // Delta response times (Fig. 7b): MySQL worst, Apache mildest.
        const seconds rt_mysql = 0.10 + 0.60 * frac;
        const seconds rt_tomcat = 0.07 + 0.42 * frac;
        const seconds rt_apache = 0.05 + 0.30 * frac;
        // Adaptation delay (Fig. 7c): ~10 s → ~70 s.
        const seconds d_base = 10.0 + 60.0 * frac;

        t.add_measurement(action_kind::migrate, 0, w,
                          {d_base * 0.9, rt_apache, rt_apache * 0.4, dpwr * 0.9});
        t.add_measurement(action_kind::migrate, 1, w,
                          {d_base, rt_tomcat, rt_tomcat * 0.4, dpwr});
        t.add_measurement(action_kind::migrate, 2, w,
                          {d_base * 1.1, rt_mysql, rt_mysql * 0.4, dpwr * 1.05});
        // Replica addition = migration from the pool plus DB sync overhead.
        // The web tier never clones in steady operation (max one replica),
        // but crash repair re-adds its VM, so it needs an entry too.
        t.add_measurement(action_kind::add_replica, 0, w,
                          {d_base, rt_apache * 1.1, rt_apache * 0.45, dpwr * 0.95});
        t.add_measurement(action_kind::add_replica, 1, w,
                          {d_base * 1.1, rt_tomcat * 1.1, rt_tomcat * 0.45, dpwr});
        t.add_measurement(action_kind::add_replica, 2, w,
                          {d_base * 1.25, rt_mysql * 1.15, rt_mysql * 0.45, dpwr * 1.1});
        // Removal migrates back to the pool with less pressure.
        t.add_measurement(action_kind::remove_replica, 0, w,
                          {d_base * 0.8, rt_apache * 0.6, rt_apache * 0.25, dpwr * 0.8});
        t.add_measurement(action_kind::remove_replica, 1, w,
                          {d_base * 0.8, rt_tomcat * 0.6, rt_tomcat * 0.25, dpwr * 0.8});
        t.add_measurement(action_kind::remove_replica, 2, w,
                          {d_base * 0.8, rt_mysql * 0.6, rt_mysql * 0.25, dpwr * 0.85});
        // CPU tuning: effectively instantaneous scheduler calls.
        for (std::size_t tier = 0; tier < 3; ++tier) {
            t.add_measurement(action_kind::increase_cpu, tier, w,
                              {1.0, 0.005, 0.0, 0.5});
            t.add_measurement(action_kind::decrease_cpu, tier, w,
                              {1.0, 0.005, 0.0, 0.0});
        }
    }
    // Section V-B: "Starting a host takes around 90 sec and consumes around
    // 80 watts while shut-down takes 30 sec and consumes 20 watts. We assume
    // that response times on other machines are not changed."
    // delta_power is relative to the steady draw of the configuration the
    // action fires from: a booting host is off in that configuration (+80 W
    // of new draw), while a host being shut down is still accounted at its
    // ~60 W idle, so drawing 20 W during shutdown is a 40 W *reduction*.
    t.add_measurement(action_kind::power_on, 0, 0.0, {90.0, 0.0, 0.0, 80.0});
    t.add_measurement(action_kind::power_off, 0, 0.0, {30.0, 0.0, 0.0, -40.0});
    return t;
}

}  // namespace mistral::cost
