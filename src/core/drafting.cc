#include "core/drafting.h"

#include <type_traits>
#include <variant>

#include "core/search.h"

namespace mistral::core {

touched_hosts affected_hosts(const cluster::configuration& config,
                             const cluster::action& a) {
    touched_hosts out;
    std::visit(
        [&](const auto& x) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, cluster::migrate>) {
                out.hosts = {config.placement(x.vm)->host, x.to};
                out.count = 2;
            } else if constexpr (std::is_same_v<T, cluster::add_replica>) {
                out.hosts[0] = x.to;
                out.count = 1;
            } else if constexpr (std::is_same_v<T, cluster::remove_replica> ||
                                 std::is_same_v<T, cluster::increase_cpu> ||
                                 std::is_same_v<T, cluster::decrease_cpu>) {
                out.hosts[0] = config.placement(x.vm)->host;
                out.count = 1;
            }
            // Power cycling affects no running application (Section V-B).
        },
        a);
    return out;
}

std::size_t overbooked_hosts(const cluster::cluster_model& model,
                             const cluster::configuration& config) {
    std::size_t n = 0;
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        const host_id host{static_cast<std::int32_t>(h)};
        n += cluster::overbooked(model, config, host) ? 1 : 0;
    }
    return n;
}

std::size_t overbooked_after(const cluster::cluster_model& model,
                             const cluster::configuration& parent,
                             std::size_t parent_overbooked,
                             const cluster::configuration& child,
                             const touched_hosts& touched) {
    std::size_t n = parent_overbooked;
    for (const host_id h : touched) {
        n -= cluster::overbooked(model, parent, h) ? 1 : 0;
        n += cluster::overbooked(model, child, h) ? 1 : 0;
    }
    return n;
}

bool action_allowed(const cluster::cluster_model& model, const search_options& options,
                    const cluster::configuration& config, const cluster::action& a) {
    if (!options.app_hosts.empty()) {
        const bool pool_ok = std::visit(
            [&](const auto& x) -> bool {
                using T = std::decay_t<decltype(x)>;
                if constexpr (std::is_same_v<T, cluster::migrate> ||
                              std::is_same_v<T, cluster::add_replica>) {
                    const auto app = model.vm(x.vm).app;
                    return options.app_hosts[app.index()][x.to.index()];
                } else {
                    return true;
                }
            },
            a);
        if (!pool_ok) return false;
    }
    if (!options.host_scope.empty()) {
        const auto& scope = options.host_scope;
        const bool scope_ok = std::visit(
            [&](const auto& x) -> bool {
                using T = std::decay_t<decltype(x)>;
                if constexpr (std::is_same_v<T, cluster::migrate>) {
                    return scope[config.placement(x.vm)->host.index()] &&
                           scope[x.to.index()];
                } else if constexpr (std::is_same_v<T, cluster::add_replica>) {
                    return scope[x.to.index()];
                } else if constexpr (std::is_same_v<T, cluster::remove_replica> ||
                                     std::is_same_v<T, cluster::increase_cpu> ||
                                     std::is_same_v<T, cluster::decrease_cpu>) {
                    return scope[config.placement(x.vm)->host.index()];
                } else {
                    return scope[x.host.index()];
                }
            },
            a);
        if (!scope_ok) return false;
    }
    return true;
}

decision_costs::decision_costs(const cluster::cluster_model& model,
                               const cost::cost_table& costs,
                               const std::vector<req_per_sec>& rates)
    : model_(&model), costs_(&costs), rates_(&rates) {
    tier_offset_.reserve(model.app_count());
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        tier_offset_.push_back(slots_);
        slots_ += model.app(app_id{static_cast<std::int32_t>(a)}).tier_count();
    }
    // Host power actions key on the kind alone and use slot 0.
    if (slots_ == 0) slots_ = 1;
    constexpr std::size_t kinds =
        static_cast<std::size_t>(cluster::action_kind::power_off) + 1;
    entries_.resize(kinds * slots_);
    filled_.assign(kinds * slots_, 0);
}

const cost::cost_entry& decision_costs::lookup(const cluster::action& a) {
    const auto kind = static_cast<std::size_t>(cluster::kind_of(a));
    const std::size_t slot = std::visit(
        [&](const auto& x) -> std::size_t {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, cluster::power_on> ||
                          std::is_same_v<T, cluster::power_off>) {
                return 0;
            } else {
                const auto& desc = model_->vm(x.vm);
                return tier_offset_[desc.app.index()] + desc.tier;
            }
        },
        a);
    const std::size_t i = kind * slots_ + slot;
    if (filled_[i] == 0) {
        entries_[i] = costs_->lookup(*model_, a, *rates_);  // may throw
        filled_[i] = 1;
    }
    return entries_[i];
}

dedup_table::dedup_table(std::size_t expected) {
    std::size_t n = 16;
    while (n < 2 * expected) n *= 2;
    slots_.resize(n);
}

void dedup_table::grow() {
    std::vector<slot> old(2 * slots_.size());
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const slot& s : old) {
        if (s.rep == npos) continue;
        std::size_t i = s.hash & mask;
        while (slots_[i].rep != npos) i = (i + 1) & mask;
        slots_[i] = s;
    }
}

}  // namespace mistral::core
