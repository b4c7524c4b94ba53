// The utility-evaluation engine.
//
// Every decision the controllers make is dominated by repeated steady-state
// utility evaluations: an LQN solve plus a power-model read per generated
// child of the A* search (Section IV-B) and per gradient candidate of the
// Perf-Pwr optimizer (Section IV-A). `serial_evaluator` owns all of that
// computation — LQN response times, power draw, and the Eq. 1/2 accounting —
// so the search and the optimizer never touch the lqn::/power:: models
// directly. It evaluates on the calling thread.
//
// Its one cache (`app_solve_cache`) holds per-application LQN sub-solves:
// the steady utility is a sum of per-app performance terms plus per-host
// power, and an app's sub-solve depends only on its own resource signature —
// its replicas' caps, the inflation factors of the hosts they occupy, and
// its request rate. Adjacent search vertices differ by one action touching
// 1–2 apps, so evaluating a neighbor re-solves only the perturbed apps and
// reuses cached sub-solves for the rest. The cache persists across decisions
// (bounded LRU); results are bit-identical to a whole-configuration solve
// because the signature captures, bit-exactly, every input the sub-solve
// reads. See DESIGN.md "Utility evaluation engine" and "Incremental
// evaluation".
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "cluster/configuration.h"
#include "cluster/model.h"
#include "core/utility.h"
#include "lqn/model.h"
#include "lqn/solver.h"
#include "obs/metrics.h"

namespace mistral::obs {
class sink;
}

namespace mistral::core {

// One steady-state evaluation of a configuration under the bound workload.
struct steady_utility {
    double rate = 0.0;        // $/s combined accrual (perf_rate + power_rate)
    double perf_rate = 0.0;   // Eq. 1 component ($/s)
    double power_rate = 0.0;  // Eq. 2 component ($/s, ≤ 0)
    std::vector<seconds> response_times;  // predicted mean per application
    watts power = 0.0;
    bool candidate = false;      // satisfies the per-host packing constraint
    bool meets_targets = true;   // every app within its *planning* target
};

// Per-(app, tier) sizing for the Perf-Pwr gradient's isolated-replica view:
// how many replicas at what (uniform) cap, placement ignored.
struct tier_sizing {
    int replicas = 1;
    fraction cap = 0.8;
};
using app_sizing = std::vector<std::vector<tier_sizing>>;  // [app][tier]

// Performance-only evaluation of a sizing with replicas isolated one per
// synthetic host (what the Perf-Pwr gradient search scores; Section IV-A).
struct isolated_perf {
    double perf_rate = 0.0;
    std::vector<seconds> response_times;
    bool meets_all_targets = true;
};

struct evaluation_stats {
    std::size_t evaluations = 0;  // evaluate() calls (placed configurations)
    // Placed sub-solves: LQN solves performed and per-app cache probes.
    std::size_t app_solves = 0;
    std::size_t app_cache_hits = 0;
    std::size_t app_cache_misses = 0;
    // The evaluate_isolated path's per-app sub-solves and reuses, kept apart
    // from the placed counters above so "LQN solves per decision" keeps
    // meaning the search's sub-solves.
    std::size_t isolated_solves = 0;
    std::size_t isolated_hits = 0;

    [[nodiscard]] double app_hit_rate() const {
        const auto total = app_cache_hits + app_cache_misses;
        return total > 0 ? static_cast<double>(app_cache_hits) /
                               static_cast<double>(total)
                         : 0.0;
    }
};

// Resource signature of one application's LQN sub-solve: every input
// lqn::solve_app reads, packed bit-exactly into 64-bit words — the app index,
// the bit pattern of its rate, and per tier the replica count followed by
// each replica's milli-cap and the bit pattern of its host's inflation
// factor. Two deployments with equal signatures produce bit-identical
// sub-solves, which is what makes cache reuse sound. Host identity enters
// only through the inflation value: an app migrated between equally-inflated
// hosts keys the same, deliberately.
struct app_signature {
    std::vector<std::uint64_t> words;

    friend bool operator==(const app_signature&, const app_signature&) = default;
};

struct app_signature_hash {
    std::size_t operator()(const app_signature& s) const noexcept {
        std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ s.words.size();
        for (const std::uint64_t w : s.words) {
            h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        }
        return static_cast<std::size_t>(h);
    }
};

// LRU cache of per-application LQN sub-solves, keyed by app_signature. It
// keeps each sub-solve's mean response time, the one output both evaluate
// paths read, so an entry is its key plus a double. It is never cleared when
// the workload moves: the rate is part of the key, so entries for other rates
// simply stop matching and age out — which is what lets sub-solves persist
// across controller decisions.
class app_solve_cache {
public:
    explicit app_solve_cache(std::size_t capacity);

    // nullptr on miss. The pointer is invalidated by the next insert.
    [[nodiscard]] const seconds* find(const app_signature& sig);
    void insert(app_signature sig, seconds response_time);
    void clear();

    [[nodiscard]] std::size_t size() const { return index_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] std::size_t hits() const { return hits_; }
    [[nodiscard]] std::size_t misses() const { return misses_; }
    [[nodiscard]] std::size_t evictions() const { return evictions_; }

private:
    // Each key is stored once, in its index node, whose address is stable;
    // the recency list points at those keys.
    using recency = std::list<const app_signature*>;  // front = most recent
    struct slot {
        seconds response_time;
        recency::iterator use;
    };
    std::size_t capacity_;
    recency lru_;
    std::unordered_map<app_signature, slot, app_signature_hash> index_;
    std::size_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

// The signature of app `a` within a translated deployment (exposed for
// tests). `inflation` is lqn::compute_host_loads(...).inflation. Every
// replica cap must lie on the configuration's 1e-3 grid (checked): the key
// stores caps as milli counts.
[[nodiscard]] app_signature make_app_signature(
    std::size_t app, req_per_sec rate, const lqn::app_deployment& dep,
    const std::vector<double>& inflation);

// The signature of app `a`'s sub-solve in the isolated-replica view
// (evaluate_isolated): every replica sits alone on its own synthetic host, so
// the sub-solve depends only on the app, the bit pattern of its rate, and per
// tier the replica count and the bit pattern of the cap. Caps are keyed by
// their exact bits because Perf-Pwr sizings step caps down by repeated
// subtraction and never round them to the 1e-3 grid. The first word carries
// a tag bit that placed signatures never set, so the two kinds of entry can
// share one cache without aliasing.
[[nodiscard]] app_signature make_isolated_signature(
    std::size_t app, req_per_sec rate, const std::vector<tier_sizing>& tiers);

// The evaluation engine. Bound to one decision context at a time via
// begin_decision(); evaluate/evaluate_isolated results are deterministic
// functions of (configuration or sizing, bound rates), whatever the cache
// holds — see DESIGN.md for the contract.
class serial_evaluator {
public:
    // `sink` (journal.h): nullptr — the null sink — makes every recording
    // site a single branch; when the sink carries a metrics registry, the
    // evaluator registers its solve counters there and records them with
    // relaxed atomic adds on the hot path.
    serial_evaluator(const cluster::cluster_model& model, utility_model utility,
                     lqn::model_options lqn = {}, obs::sink* sink = nullptr);

    // Binds the workload for the decision being made and derives the per-app
    // planning targets. Rates must be finite and non-negative.
    void begin_decision(const std::vector<req_per_sec>& rates);

    // Planning targets (rt_margin · TRT(w)) for the bound rates.
    [[nodiscard]] const std::vector<seconds>& targets() const { return targets_; }

    // Steady-state utility of one configuration: translated, then solved per
    // app through the sub-solve cache.
    [[nodiscard]] steady_utility evaluate(const cluster::configuration& config);

    // The Perf-Pwr gradient's isolated-replica performance view. A gradient
    // candidate changes one (app, tier), so the other apps' sub-solves come
    // from the cache (bit-identical to a fresh solve; see
    // make_isolated_signature).
    [[nodiscard]] isolated_perf evaluate_isolated(const app_sizing& s);

    // Drops every cached sub-solve and resets the counters (cold-cache
    // benchmarking and fresh-decision tests).
    void reset();

    [[nodiscard]] const evaluation_stats& stats() const { return stats_; }

protected:
    // The whole-configuration solve: one lqn::solve, no cache. The reference
    // evaluate() must match bit for bit.
    [[nodiscard]] steady_utility compute(const cluster::configuration& config) const;
    // The isolated-replica view solved whole: every app's replicas on fresh
    // synthetic hosts, one lqn::solve. The reference evaluate_isolated()
    // must match bit for bit.
    [[nodiscard]] isolated_perf compute_isolated(const app_sizing& s) const;

private:
    // App `a`'s sub-solve within the isolated view, on synthetic hosts of its
    // own: its mean response time.
    [[nodiscard]] seconds solve_isolated_app(
        std::size_t a, const std::vector<tier_sizing>& tiers) const;
    // Folds per-app response times into an isolated_perf (app order).
    [[nodiscard]] isolated_perf fold_isolated(std::vector<seconds> response_times) const;
    // Folds per-app mean response times and host utilizations into a
    // steady_utility with exactly compute()'s accounting (power first, then
    // the per-app perf terms in app order). Pure.
    [[nodiscard]] steady_utility assemble(
        const cluster::configuration& config, std::vector<seconds> response_times,
        const std::vector<fraction>& host_utilization) const;

    const cluster::cluster_model* model_;
    utility_model utility_;
    lqn::model_options lqn_;
    std::vector<req_per_sec> rates_;
    std::vector<seconds> targets_;
    app_solve_cache app_cache_;  // persists across decisions
    evaluation_stats stats_;
    // Disabled (one-branch no-op) handles unless the sink carries a metrics
    // registry. Recorded alongside stats_, which stays the exact per-instance
    // source of truth; the registry aggregates across instances.
    obs::counter obs_solves_;
    obs::counter obs_app_solves_;
    obs::counter obs_app_hits_;
    obs::counter obs_app_misses_;
};

}  // namespace mistral::core
