// Per-child bookkeeping of the A* search (core/search.cc).
//
// Every generated child pays for its cost-table entry, its candidacy, and the
// set of hosts whose applications feel its transient. Done from scratch, that
// is a map lookup plus a linear scan, a full structural-validity rescan of the
// configuration, and a small heap allocation per child — more than the LQN
// work a child costs once the evaluator's caches are warm. The helpers below
// do the same work incrementally and without allocating; the search uses
// them and the differential tests (tests/core/drafting_test.cc) check each
// against its from-scratch counterpart.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/action.h"
#include "cluster/configuration.h"
#include "cluster/model.h"
#include "cost/table.h"

namespace mistral::core {

struct search_options;

// The hosts whose applications feel an action's transient — at most two (a
// migration's source and target), none for host power actions. They are
// also the only hosts whose CPU cap sum the action can change.
struct touched_hosts {
    std::array<host_id, 2> hosts{};
    std::size_t count = 0;

    [[nodiscard]] const host_id* begin() const { return hosts.data(); }
    [[nodiscard]] const host_id* end() const { return hosts.data() + count; }
    [[nodiscard]] bool empty() const { return count == 0; }
};

// `config` is the configuration `a` fires from.
[[nodiscard]] touched_hosts affected_hosts(const cluster::configuration& config,
                                           const cluster::action& a);

// Number of hosts failing cluster::overbooked, the packing test is_candidate
// adds to structural validity.
[[nodiscard]] std::size_t overbooked_hosts(const cluster::cluster_model& model,
                                           const cluster::configuration& config);

// Overbooked-host count of `child`, the result of applying an action that
// touched `touched` to `parent`, whose count was `parent_overbooked`: only
// the touched hosts can change. When `parent` is structurally valid and the
// action was applicable to it, `child` is structurally valid too (that is
// what `applicable` promises), so is_candidate(child) holds exactly when the
// returned count is zero.
[[nodiscard]] std::size_t overbooked_after(const cluster::cluster_model& model,
                                           const cluster::configuration& parent,
                                           std::size_t parent_overbooked,
                                           const cluster::configuration& child,
                                           const touched_hosts& touched);

// The search's lenses: options.app_hosts (per-app host pools) and
// options.host_scope (the hosts a hierarchy level manages). True when `a`,
// fired from `config`, stays inside both.
[[nodiscard]] bool action_allowed(const cluster::cluster_model& model,
                                  const search_options& options,
                                  const cluster::configuration& config,
                                  const cluster::action& a);

// cost_table::lookup(model, a, rates) for one decision's fixed rates. The
// entry depends only on the action's kind and, for VM actions, on the
// (app, tier) of the VM it touches, so each (kind, app, tier) is looked up
// once, on first use, and served from a flat table afterwards. A missing
// measurement throws from lookup exactly as cost_table::lookup does, at the
// first action that needs it (and again at every later one).
class decision_costs {
public:
    // `model`, `costs` and `rates` must outlive this object.
    decision_costs(const cluster::cluster_model& model, const cost::cost_table& costs,
                   const std::vector<req_per_sec>& rates);

    [[nodiscard]] const cost::cost_entry& lookup(const cluster::action& a);

private:
    const cluster::cluster_model* model_;
    const cost::cost_table* costs_;
    const std::vector<req_per_sec>* rates_;
    std::vector<std::size_t> tier_offset_;  // first (app, tier) slot per app
    std::size_t slots_ = 0;                 // (app, tier) slots per kind
    std::vector<cost::cost_entry> entries_;  // [kind · slots_ + slot]
    std::vector<std::uint8_t> filled_;
};

}  // namespace mistral::core
