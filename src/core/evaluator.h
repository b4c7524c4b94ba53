// The utility-evaluation engine.
//
// Every decision the controllers make is dominated by repeated steady-state
// utility evaluations: an LQN solve plus a power-model read per generated
// child of the A* search (Section IV-B) and per gradient candidate of the
// Perf-Pwr optimizer (Section IV-A). `utility_evaluator` owns all of that
// computation — LQN response times, power draw, and the Eq. 1/2 accounting —
// behind one interface, so the search and the optimizer never touch the
// lqn::/power:: models directly and the evaluation strategy is pluggable:
//
//  * serial_evaluator   — evaluates on the calling thread; the default, and
//                         the behavioral reference.
//  * parallel_evaluator — a fixed thread pool evaluates a whole expansion's
//                         children as one batch. Results are bit-identical to
//                         the serial evaluator (each configuration is solved
//                         independently by the same deterministic solver, and
//                         memo bookkeeping stays on the calling thread).
//
// Both share a per-decision memo (`eval_memo`) keyed by (configuration,
// quantized request rates): revisited vertices and A* detours hit the cache
// instead of re-solving the LQN. See DESIGN.md "Utility evaluation engine"
// for the caching contract — what may be reused within a control window, and
// why cross-window reuse is bounded by the rate quantum.
//
// Below the memo sits *delta evaluation* (`app_solve_cache`, on by default):
// the steady utility is a sum of per-app performance terms plus per-host
// power, and an app's LQN sub-solve depends only on its own resource
// signature — its replicas' caps, the inflation factors of the hosts they
// occupy, and its (quantized) request rate. Adjacent search vertices differ
// by one action touching 1–2 apps, so evaluating a neighbor re-solves only
// the perturbed apps and reuses cached sub-solves for the rest. The cache
// persists across decisions (bounded LRU); results are bit-identical to full
// evaluation because the signature captures, bit-exactly, every input the
// sub-solve reads. See DESIGN.md "Incremental evaluation".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
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

// Tuning for the evaluation engine. Defaults are the serial reference
// configuration; all values are validated on construction (check.h style).
struct evaluation_options {
    // Worker threads for batched evaluation. 1 selects the serial path; the
    // parallel evaluator runs the calling thread as one of the workers.
    // Valid range [1, 256].
    std::size_t threads = 1;
    // Memo entries kept (least-recently-used eviction). Must be ≥ 1; sized
    // so one decision's working set (a few thousand vertices on the paper's
    // cluster sizes) fits without eviction.
    std::size_t memo_capacity = 4096;
    // Request-rate grid for memo keys, in req/s. 0 keys on exact rates —
    // memoized results are reused across decisions only when the workload
    // vector is identical. A positive quantum trades accuracy for hit rate:
    // rates within the same grid cell share entries, so a reused value may
    // be stale by up to one quantum of workload movement. Must be ≥ 0.
    req_per_sec rate_quantum = 0.0;
    // Delta evaluation: memo misses re-solve only the applications whose
    // resource signature changed, reusing cached per-app sub-solves for the
    // rest (bit-identical to a full solve — see the header comment). Off
    // forces a whole-configuration LQN solve per miss; the A/B reference for
    // benchmarks and the bit-identity tests.
    bool delta_eval = true;
    // Per-app sub-solve entries kept (LRU). Must be ≥ 1. Entries are small
    // (one app_result) and the cache persists across decisions, so it is
    // sized an order of magnitude above the memo.
    std::size_t app_cache_capacity = 65536;
    // Observability hook (journal.h). nullptr — the default null sink — makes
    // every recording site a single branch; when the sink carries a metrics
    // registry, the evaluator registers solve/memo counters in it and records
    // them with relaxed atomic adds on the hot path.
    obs::sink* sink = nullptr;

    evaluation_options& with_threads(std::size_t n) {
        threads = n;
        return *this;
    }
    evaluation_options& with_memo_capacity(std::size_t n) {
        memo_capacity = n;
        return *this;
    }
    evaluation_options& with_rate_quantum(req_per_sec q) {
        rate_quantum = q;
        return *this;
    }
    evaluation_options& with_delta_eval(bool on) {
        delta_eval = on;
        return *this;
    }
    evaluation_options& with_app_cache_capacity(std::size_t n) {
        app_cache_capacity = n;
        return *this;
    }
};

struct evaluation_stats {
    std::size_t evaluations = 0;  // configuration evaluations not served by the memo
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t evictions = 0;
    std::size_t batches = 0;      // evaluate_batch calls
    // Per-app sub-solve accounting. The full (delta_eval off) path counts
    // app_count sub-solves per whole-configuration solve, so "LQN solves per
    // decision" is comparable across modes; app cache hits/misses accrue only
    // on the delta path.
    std::size_t app_solves = 0;
    std::size_t app_cache_hits = 0;
    std::size_t app_cache_misses = 0;
    // The serial evaluate_isolated path's per-app sub-solves and reuses
    // (delta_eval on), kept apart from the placed counters above so "LQN
    // solves per decision" keeps meaning the search's sub-solves.
    std::size_t isolated_solves = 0;
    std::size_t isolated_hits = 0;

    [[nodiscard]] double hit_rate() const {
        const auto total = cache_hits + cache_misses;
        return total > 0 ? static_cast<double>(cache_hits) /
                               static_cast<double>(total)
                         : 0.0;
    }
    [[nodiscard]] double app_hit_rate() const {
        const auto total = app_cache_hits + app_cache_misses;
        return total > 0 ? static_cast<double>(app_cache_hits) /
                               static_cast<double>(total)
                         : 0.0;
    }
};

// LRU memo of steady-state evaluations. Entries are valid only for the rate
// key they were computed under; `bind_rates` invalidates the store whenever
// the quantized workload vector moves to a different grid cell, so a lookup
// can never return a value computed for rates farther than one quantum away.
class eval_memo {
public:
    explicit eval_memo(std::size_t capacity);

    // The memo key for `rates` under `quantum` (exposed for tests): exact
    // bit-pattern keys at quantum 0, nearest-grid-cell indices otherwise.
    [[nodiscard]] static std::vector<std::int64_t> quantize(
        const std::vector<req_per_sec>& rates, req_per_sec quantum);

    // Binds the workload context; clears the store if the key changed.
    void bind_rates(const std::vector<req_per_sec>& rates, req_per_sec quantum);

    // nullptr on miss. The pointer is invalidated by the next insert.
    [[nodiscard]] const steady_utility* find(const cluster::configuration& c);
    void insert(const cluster::configuration& c, steady_utility value);
    void clear();

    [[nodiscard]] std::size_t size() const { return lru_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] std::size_t hits() const { return hits_; }
    [[nodiscard]] std::size_t misses() const { return misses_; }
    [[nodiscard]] std::size_t evictions() const { return evictions_; }

private:
    using entry = std::pair<cluster::configuration, steady_utility>;
    std::size_t capacity_;
    std::vector<std::int64_t> rate_key_;
    bool bound_ = false;
    std::list<entry> lru_;  // front = most recently used
    std::unordered_map<cluster::configuration, std::list<entry>::iterator> index_;
    std::size_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

// Resource signature of one application's LQN sub-solve: every input
// lqn::solve_app reads, packed bit-exactly into 64-bit words — the app index,
// its quantized rate key, and per tier the replica count followed by each
// replica's milli-cap and the bit pattern of its host's inflation factor.
// Two deployments with equal signatures (at rate quantum 0) produce
// bit-identical sub-solves, which is what makes cache reuse sound. Host
// identity enters only through the inflation value: an app migrated between
// equally-inflated hosts keys the same, deliberately.
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

// LRU cache of per-application LQN sub-solves, keyed by app_signature.
// Unlike eval_memo it is *not* cleared when the workload moves: the rate is
// part of the key, so entries for other rates simply stop matching and age
// out — which is what lets sub-solves persist across controller decisions.
class app_solve_cache {
public:
    explicit app_solve_cache(std::size_t capacity);

    // nullptr on miss. The pointer is invalidated by the next insert.
    [[nodiscard]] const lqn::app_result* find(const app_signature& sig);
    void insert(app_signature sig, lqn::app_result value);
    void clear();

    [[nodiscard]] std::size_t size() const { return lru_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] std::size_t hits() const { return hits_; }
    [[nodiscard]] std::size_t misses() const { return misses_; }
    [[nodiscard]] std::size_t evictions() const { return evictions_; }

private:
    using entry = std::pair<app_signature, lqn::app_result>;
    std::size_t capacity_;
    std::list<entry> lru_;  // front = most recently used
    std::unordered_map<app_signature, std::list<entry>::iterator,
                       app_signature_hash>
        index_;
    std::size_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

// The signature of app `a` within a translated deployment (exposed for
// tests). `rate_key` is the app's element of eval_memo::quantize;
// `inflation` is lqn::compute_host_loads(...).inflation. Every replica cap
// must lie on the configuration's 1e-3 grid (checked): the key stores caps
// as milli counts.
[[nodiscard]] app_signature make_app_signature(
    std::size_t app, std::int64_t rate_key, const lqn::app_deployment& dep,
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

// The pluggable engine interface. Implementations are bound to one decision
// context at a time via begin_decision(); evaluate/evaluate_batch results are
// deterministic functions of (configuration, bound rates) — see DESIGN.md
// for the purity and reentrancy contract.
class utility_evaluator {
public:
    virtual ~utility_evaluator() = default;

    // Binds the workload for the decision being made. Derives the per-app
    // planning targets; retains memoized results only while the quantized
    // rate key is unchanged. Idempotent for equal rates.
    virtual void begin_decision(const std::vector<req_per_sec>& rates) = 0;

    // Planning targets (rt_margin · TRT(w)) for the bound rates.
    [[nodiscard]] virtual const std::vector<seconds>& targets() const = 0;

    // Steady-state utility of one configuration (memoized).
    [[nodiscard]] virtual steady_utility evaluate(
        const cluster::configuration& config) = 0;

    // Evaluates a whole expansion's children; results in input order,
    // bit-identical to calling evaluate() sequentially. Duplicate
    // configurations within the batch are solved once.
    [[nodiscard]] virtual std::vector<steady_utility> evaluate_batch(
        const std::vector<cluster::configuration>& configs) = 0;

    // The Perf-Pwr gradient's isolated-replica performance view. A gradient
    // candidate changes one (app, tier), so the serial engine reuses cached
    // per-app sub-solves for the other apps (bit-identical to a fresh
    // solve; see make_isolated_signature).
    [[nodiscard]] virtual isolated_perf evaluate_isolated(const app_sizing& s) = 0;

    // Batch form: all of one gradient step's candidate sizings at once.
    // Results in input order, bit-identical to sequential evaluate_isolated.
    [[nodiscard]] virtual std::vector<isolated_perf> evaluate_isolated_batch(
        const std::vector<app_sizing>& sizings) = 0;

    // Concurrent workers the batch path may use (1 for the serial path);
    // what the search meter charges power against.
    [[nodiscard]] virtual std::size_t parallelism() const = 0;

    // Drops all memoized results and resets counters (fresh-decision tests
    // and cold-cache benchmarking).
    virtual void reset_memo() = 0;

    [[nodiscard]] virtual const evaluation_stats& stats() const = 0;
};

// Reference implementation: evaluates on the calling thread.
class serial_evaluator : public utility_evaluator {
public:
    serial_evaluator(const cluster::cluster_model& model, utility_model utility,
                     lqn::model_options lqn = {}, evaluation_options options = {});

    void begin_decision(const std::vector<req_per_sec>& rates) override;
    [[nodiscard]] const std::vector<seconds>& targets() const override {
        return targets_;
    }
    [[nodiscard]] steady_utility evaluate(
        const cluster::configuration& config) override;
    [[nodiscard]] std::vector<steady_utility> evaluate_batch(
        const std::vector<cluster::configuration>& configs) override;
    [[nodiscard]] isolated_perf evaluate_isolated(const app_sizing& s) override;
    [[nodiscard]] std::vector<isolated_perf> evaluate_isolated_batch(
        const std::vector<app_sizing>& sizings) override;
    [[nodiscard]] std::size_t parallelism() const override { return 1; }
    void reset_memo() override;
    [[nodiscard]] const evaluation_stats& stats() const override { return stats_; }

    [[nodiscard]] const evaluation_options& options() const { return options_; }

protected:
    // The pure computations: no memo access, no mutation — safe to call from
    // worker threads concurrently.
    [[nodiscard]] steady_utility compute(const cluster::configuration& config) const;
    // The isolated-replica view solved whole: every app's replicas on fresh
    // synthetic hosts, one lqn::solve. The reference the per-app reuse in
    // evaluate_isolated must match bit for bit.
    [[nodiscard]] isolated_perf compute_isolated(const app_sizing& s) const;
    // App `a`'s sub-solve within that view, on synthetic hosts of its own.
    [[nodiscard]] lqn::app_result solve_isolated_app(
        std::size_t a, const std::vector<tier_sizing>& tiers) const;
    // Folds per-app response times into an isolated_perf (app order).
    [[nodiscard]] isolated_perf fold_isolated(std::vector<seconds> response_times) const;
    // Folds per-app solve results and host utilizations into a steady_utility
    // with exactly compute()'s accounting (power first, then the per-app
    // perf terms in app order). Pure.
    [[nodiscard]] steady_utility assemble(
        const cluster::configuration& config,
        const std::vector<lqn::app_result>& apps,
        const std::vector<fraction>& host_utilization) const;
    // One memo-missed evaluation: the delta path (app-cache probes +
    // sub-solves for the misses) when options_.delta_eval, a full compute()
    // otherwise. Updates app-cache state and stats; calling-thread only.
    [[nodiscard]] steady_utility solve_config(const cluster::configuration& config);

    const cluster::cluster_model* model_;
    utility_model utility_;
    lqn::model_options lqn_;
    evaluation_options options_;
    std::vector<req_per_sec> rates_;
    std::vector<seconds> targets_;
    // Per-app elements of the bound decision's quantized rate key (set by
    // begin_decision; what app signatures embed).
    std::vector<std::int64_t> rate_key_;
    // Last-seen econ epoch of utility_ (0 = unbound): begin_decision clears
    // the memo when the shared tariff factors changed underneath it.
    std::uint64_t econ_epoch_seen_ = 0;
    eval_memo memo_;
    app_solve_cache app_cache_;  // persists across decisions
    evaluation_stats stats_;
    // Disabled (one-branch no-op) handles unless options_.sink carries a
    // metrics registry. Recorded alongside stats_, which stays the exact
    // per-instance source of truth; the registry aggregates across instances.
    obs::counter obs_solves_;
    obs::counter obs_memo_hits_;
    obs::counter obs_memo_misses_;
    obs::counter obs_app_solves_;
    obs::counter obs_app_hits_;
    obs::counter obs_app_misses_;
};

// Fixed-thread-pool implementation: evaluate_batch distributes cache misses
// across `threads` workers (the calling thread included) and merges results
// in input order, so memo state — and therefore every downstream decision —
// matches the serial evaluator exactly.
class parallel_evaluator final : public serial_evaluator {
public:
    parallel_evaluator(const cluster::cluster_model& model, utility_model utility,
                       lqn::model_options lqn = {},
                       evaluation_options options = {});
    ~parallel_evaluator() override;

    parallel_evaluator(const parallel_evaluator&) = delete;
    parallel_evaluator& operator=(const parallel_evaluator&) = delete;

    [[nodiscard]] std::vector<steady_utility> evaluate_batch(
        const std::vector<cluster::configuration>& configs) override;
    [[nodiscard]] std::vector<isolated_perf> evaluate_isolated_batch(
        const std::vector<app_sizing>& sizings) override;
    [[nodiscard]] std::size_t parallelism() const override {
        return workers_.size() + 1;
    }

private:
    // Runs fn(0) … fn(count − 1) across the pool; fn must be pure per-index
    // work writing only caller-owned, per-index output slots. Rethrows the
    // first exception an invocation threw.
    void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

    // Delta-evaluation staging for evaluate_batch: probes the app cache for
    // every memo-missed configuration on the calling thread (deduplicating
    // signatures pending within the batch exactly as the serial
    // insert-then-probe order would), sub-solves the missing signatures
    // across the pool, publishes them in miss order, and assembles.
    void solve_work_delta(const std::vector<cluster::configuration>& configs,
                          const std::vector<std::size_t>& work,
                          std::vector<steady_utility>& out);

    void worker_loop();
    // Claims and runs items of job `generation` until its queue is drained
    // (or a newer job has replaced it).
    void drain(std::uint32_t generation, std::size_t count);
    // Runs fn(0) … fn(count − 1) across the pool plus the calling thread;
    // returns when all invocations finished, rethrowing the first exception.
    void run_job(const std::function<void(std::size_t)>& fn, std::size_t count);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::function<void(std::size_t)> job_;  // written under mutex_ between jobs
    std::size_t job_generation_ = 0;        // guarded by mutex_
    std::size_t job_count_ = 0;             // guarded by mutex_
    // Lock-free work queue: ⟨generation, next index⟩ packed into one word and
    // claimed by CAS, so the hot loop never touches mutex_ (per-item locking
    // dominated micro-batches) and a worker that wakes late — holding a stale
    // generation — can never claim an index from the job that replaced it.
    std::atomic<std::uint64_t> job_cursor_{0};
    std::atomic<std::size_t> job_done_{0};
    std::exception_ptr job_error_;          // guarded by mutex_
    bool shutdown_ = false;
};

// Builds the evaluator `options` asks for: serial at threads == 1, the
// thread-pool implementation otherwise.
[[nodiscard]] std::shared_ptr<utility_evaluator> make_evaluator(
    const cluster::cluster_model& model, utility_model utility,
    lqn::model_options lqn = {}, evaluation_options options = {});

}  // namespace mistral::core
