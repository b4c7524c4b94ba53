// Per-child bookkeeping of the A* search (core/search.cc).
//
// Every generated child pays for its cost-table entry, its candidacy, and the
// set of hosts whose applications feel its transient. Done from scratch, that
// is a map lookup plus a linear scan, a full structural-validity rescan of the
// configuration, and a small heap allocation per child — more than the LQN
// work a child costs once the evaluator's caches are warm. The helpers below
// do the same work incrementally and without allocating, and dedup_table
// replaces a map keyed by whole configurations; the search uses them and the
// differential tests (tests/core/drafting_test.cc) check each against its
// from-scratch counterpart.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
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

// Best utility recorded per configuration: the A*'s duplicate detection.
// Open addressing with linear probing over a power-of-two slot array that is
// at most half full. A slot holds a configuration's incremental Zobrist hash,
// the index of a representative vertex carrying that configuration, and the
// best utility recorded for it. The table stores no configuration: on a hash
// match the caller's `config_of(rep)` supplies the representative's for a
// full compare, so a hash collision never merges two configurations.
class dedup_table {
public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    struct slot {
        std::uint64_t hash = 0;
        std::size_t rep = npos;  // npos marks an empty slot
        double best = 0.0;
    };

    // Room for `expected` entries before the first growth.
    explicit dedup_table(std::size_t expected);

    [[nodiscard]] std::size_t size() const { return size_; }

    // The entry of the configuration equal to `c`, or nullptr. `config_of`
    // maps a representative index to its configuration.
    template <class ConfigOf>
    [[nodiscard]] slot* find(const cluster::configuration& c, const ConfigOf& config_of) {
        slot& s = probe(c, config_of);
        return s.rep == npos ? nullptr : &s;
    }

    // find(), inserting (rep, best) when `c` is new; `second` says whether it
    // was. The pointer is invalidated by the next insertion.
    template <class ConfigOf>
    std::pair<slot*, bool> try_emplace(const cluster::configuration& c, std::size_t rep,
                                       double best, const ConfigOf& config_of) {
        if (2 * (size_ + 1) > slots_.size()) grow();
        slot& s = probe(c, config_of);
        if (s.rep != npos) return {&s, false};
        s = {c.hash(), rep, best};
        ++size_;
        return {&s, true};
    }

private:
    // The slot holding `c`, or the empty slot where it would go.
    template <class ConfigOf>
    slot& probe(const cluster::configuration& c, const ConfigOf& config_of) {
        const std::uint64_t h = c.hash();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            slot& s = slots_[i];
            if (s.rep == npos || (s.hash == h && config_of(s.rep) == c)) return s;
        }
    }

    void grow();

    std::vector<slot> slots_;
    std::size_t size_ = 0;
};

}  // namespace mistral::core
