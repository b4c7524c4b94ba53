#include "core/evaluator.h"

#include <cmath>
#include <utility>

#include "cluster/translate.h"
#include "common/check.h"
#include "lqn/solver.h"
#include "obs/journal.h"

namespace mistral::core {

namespace {

std::uint64_t bits_of(double x) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(double));
    __builtin_memcpy(&bits, &x, sizeof(bits));
    return bits;
}

}  // namespace

// ---- eval_memo -------------------------------------------------------------

eval_memo::eval_memo(std::size_t capacity) : capacity_(capacity) {
    MISTRAL_CHECK(capacity >= 1);
}

std::vector<std::int64_t> eval_memo::quantize(
    const std::vector<req_per_sec>& rates, req_per_sec quantum) {
    // A NaN rate would silently poison every key it touches (NaN never
    // compares equal, llround is UB); a negative rate is a caller bug that a
    // grid key would round into a plausible-looking cell.
    for (const req_per_sec r : rates) {
        MISTRAL_CHECK_MSG(std::isfinite(r) && r >= 0.0,
                          "request rates must be finite and non-negative");
    }
    std::vector<std::int64_t> key;
    key.reserve(rates.size());
    if (quantum <= 0.0) {
        // Exact keys: the rate's bit pattern, so only identical workload
        // vectors share entries. quantum == 0 therefore guarantees a hit can
        // only ever return a value computed under the *identical* workload
        // vector — the delta path's bit-identity proof leans on this.
        for (const req_per_sec r : rates) {
            key.push_back(static_cast<std::int64_t>(bits_of(r)));
        }
    } else {
        for (const req_per_sec r : rates) {
            key.push_back(static_cast<std::int64_t>(std::llround(r / quantum)));
        }
    }
    return key;
}

void eval_memo::bind_rates(const std::vector<req_per_sec>& rates,
                           req_per_sec quantum) {
    auto key = quantize(rates, quantum);
    if (bound_ && key == rate_key_) return;
    rate_key_ = std::move(key);
    bound_ = true;
    lru_.clear();
    index_.clear();
}

const steady_utility* eval_memo::find(const cluster::configuration& c) {
    const auto it = index_.find(c);
    if (it == index_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    return &it->second->second;
}

void eval_memo::insert(const cluster::configuration& c, steady_utility value) {
    const auto it = index_.find(c);
    if (it != index_.end()) {
        it->second->second = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(c, std::move(value));
    index_.emplace(c, lru_.begin());
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
    }
}

void eval_memo::clear() {
    lru_.clear();
    index_.clear();
    hits_ = misses_ = evictions_ = 0;
}

// ---- app_solve_cache -------------------------------------------------------

app_solve_cache::app_solve_cache(std::size_t capacity) : capacity_(capacity) {
    MISTRAL_CHECK(capacity >= 1);
}

const lqn::app_result* app_solve_cache::find(const app_signature& sig) {
    const auto it = index_.find(sig);
    if (it == index_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    return &it->second->second;
}

void app_solve_cache::insert(app_signature sig, lqn::app_result value) {
    const auto it = index_.find(sig);
    if (it != index_.end()) {
        it->second->second = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(std::move(sig), std::move(value));
    index_.emplace(lru_.front().first, lru_.begin());
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
    }
}

void app_solve_cache::clear() {
    lru_.clear();
    index_.clear();
    hits_ = misses_ = evictions_ = 0;
}

namespace {

// Set in the first word of isolated signatures only; placed signatures start
// with a plain app index.
constexpr std::uint64_t kIsolatedTag = std::uint64_t{1} << 63;

}  // namespace

app_signature make_app_signature(std::size_t app, std::int64_t rate_key,
                                 const lqn::app_deployment& dep,
                                 const std::vector<double>& inflation) {
    app_signature sig;
    std::size_t n = 2;
    for (const auto& tier : dep.tiers) n += 1 + 2 * tier.replicas.size();
    sig.words.reserve(n);
    sig.words.push_back(app);
    sig.words.push_back(static_cast<std::uint64_t>(rate_key));
    for (const auto& tier : dep.tiers) {
        sig.words.push_back(tier.replicas.size());
        for (const auto& rep : tier.replicas) {
            // Caps are multiples of 1e-3 (configuration rounds on write), so
            // the milli count pins the cap's exact double bits — checked,
            // since an off-grid cap would share a key with its rounded
            // neighbour. Inflation is an arbitrary double and is keyed by
            // bit pattern directly.
            const auto milli = std::llround(rep.cpu_cap * 1000.0);
            MISTRAL_CHECK_MSG(static_cast<double>(milli) / 1000.0 == rep.cpu_cap,
                              "app signature cap " << rep.cpu_cap
                                                   << " is off the 1e-3 grid");
            sig.words.push_back(
                static_cast<std::uint64_t>(static_cast<std::int64_t>(milli)));
            sig.words.push_back(bits_of(inflation[rep.host]));
        }
    }
    return sig;
}

app_signature make_isolated_signature(std::size_t app, req_per_sec rate,
                                      const std::vector<tier_sizing>& tiers) {
    app_signature sig;
    sig.words.reserve(2 + 2 * tiers.size());
    sig.words.push_back(kIsolatedTag | app);
    sig.words.push_back(bits_of(rate));
    for (const auto& t : tiers) {
        sig.words.push_back(static_cast<std::uint64_t>(t.replicas));
        sig.words.push_back(bits_of(t.cap));
    }
    return sig;
}

// ---- serial_evaluator ------------------------------------------------------

serial_evaluator::serial_evaluator(const cluster::cluster_model& model,
                                   utility_model utility, lqn::model_options lqn,
                                   evaluation_options options)
    : model_(&model),
      utility_(utility),
      lqn_(lqn),
      options_(options),
      memo_(options.memo_capacity),
      app_cache_(options.app_cache_capacity) {
    MISTRAL_CHECK(options_.threads >= 1 && options_.threads <= 256);
    MISTRAL_CHECK(options_.memo_capacity >= 1);
    MISTRAL_CHECK(options_.rate_quantum >= 0.0);
    MISTRAL_CHECK(options_.app_cache_capacity >= 1);
    if (auto* reg = obs::metrics_of(options_.sink)) {
        obs_solves_ = reg->register_counter(
            "mistral_eval_solves_total", "configuration evaluations not served by the memo");
        obs_memo_hits_ = reg->register_counter(
            "mistral_eval_memo_hits_total", "memoized evaluations reused");
        obs_memo_misses_ = reg->register_counter(
            "mistral_eval_memo_misses_total", "evaluations that missed the memo");
        obs_app_solves_ = reg->register_counter(
            "mistral_eval_app_solves_total", "per-app LQN sub-solves performed");
        obs_app_hits_ = reg->register_counter(
            "mistral_eval_app_cache_hits_total", "per-app sub-solves reused");
        obs_app_misses_ = reg->register_counter(
            "mistral_eval_app_cache_misses_total",
            "per-app sub-solves that missed the cache");
    }
}

void serial_evaluator::begin_decision(const std::vector<req_per_sec>& rates) {
    MISTRAL_CHECK(rates.size() == model_->app_count());
    // Econ-aware runs: a tariff factor change (update_econ bumps the shared
    // epoch) re-prices every steady evaluation, so memoized results computed
    // under the previous factors are invalid. The app-solve cache is exempt —
    // it stores LQN response times, which prices never touch. Without an econ
    // binding the epoch is permanently 0 and this is one untaken branch.
    if (utility_.econ_epoch() != econ_epoch_seen_) {
        econ_epoch_seen_ = utility_.econ_epoch();
        memo_.clear();
    }
    rates_ = rates;
    targets_.resize(model_->app_count());
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        targets_[a] = utility_.planning_target(
            model_->app(app_id{static_cast<std::int32_t>(a)})
                .target_response_time(rates[a]));
    }
    // The per-app elements of the quantized key feed app signatures; the
    // app cache itself is *not* cleared — rates are part of its keys, so
    // sub-solves persist across decisions and re-hit when the workload
    // returns to a previously seen (quantized) level.
    rate_key_ = eval_memo::quantize(rates, options_.rate_quantum);
    memo_.bind_rates(rates, options_.rate_quantum);
}

steady_utility serial_evaluator::compute(const cluster::configuration& config) const {
    const auto solved = lqn::solve(cluster::to_lqn(*model_, config, rates_),
                                   model_->host_count(), lqn_);
    return assemble(config, solved.apps, solved.host_utilization);
}

steady_utility serial_evaluator::assemble(
    const cluster::configuration& config,
    const std::vector<lqn::app_result>& apps,
    const std::vector<fraction>& host_utilization) const {
    steady_utility out;
    out.power = cluster::predicted_power(*model_, config, host_utilization);
    out.power_rate = utility_.power_rate(out.power);
    out.response_times.reserve(model_->app_count());
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        const seconds rt = apps[a].mean_response_time;
        out.response_times.push_back(rt);
        out.perf_rate += utility_.perf_rate(rates_[a], rt, targets_[a]);
        if (rt > targets_[a]) out.meets_targets = false;
    }
    // steady_rate() accumulates power-first; summing the components here
    // instead would drift by an ulp and is a different number to callers
    // that compare utilities at 1e-12.
    out.rate = utility_.steady_rate(rates_, out.response_times, targets_, out.power);
    out.candidate = is_candidate(*model_, config);
    return out;
}

steady_utility serial_evaluator::solve_config(const cluster::configuration& config) {
    if (!options_.delta_eval) {
        // Whole-configuration solve; charge one sub-solve per app so "LQN
        // solves per decision" stays comparable with the delta path.
        stats_.app_solves += model_->app_count();
        obs_app_solves_.add(static_cast<std::int64_t>(model_->app_count()));
        return compute(config);
    }
    const auto deps = cluster::to_lqn(*model_, config, rates_);
    const auto loads = lqn::compute_host_loads(deps, model_->host_count(), lqn_);
    std::vector<lqn::app_result> apps(deps.size());
    for (std::size_t a = 0; a < deps.size(); ++a) {
        auto sig = make_app_signature(a, rate_key_[a], deps[a], loads.inflation);
        if (const auto* hit = app_cache_.find(sig)) {
            ++stats_.app_cache_hits;
            obs_app_hits_.add();
            apps[a] = *hit;
            continue;
        }
        ++stats_.app_cache_misses;
        ++stats_.app_solves;
        obs_app_misses_.add();
        obs_app_solves_.add();
        apps[a] = lqn::solve_app(deps[a], loads.inflation, lqn_);
        app_cache_.insert(std::move(sig), apps[a]);
    }
    return assemble(config, apps, loads.utilization);
}

steady_utility serial_evaluator::evaluate(const cluster::configuration& config) {
    MISTRAL_CHECK_MSG(!rates_.empty(), "begin_decision() before evaluate()");
    if (const auto* hit = memo_.find(config)) {
        ++stats_.cache_hits;
        obs_memo_hits_.add();
        return *hit;
    }
    ++stats_.cache_misses;
    ++stats_.evaluations;
    obs_memo_misses_.add();
    obs_solves_.add();
    steady_utility value = solve_config(config);
    memo_.insert(config, value);
    return value;
}

std::vector<steady_utility> serial_evaluator::evaluate_batch(
    const std::vector<cluster::configuration>& configs) {
    ++stats_.batches;
    std::vector<steady_utility> out;
    out.reserve(configs.size());
    for (const auto& c : configs) out.push_back(evaluate(c));
    return out;
}

namespace {

// App `a` of a sizing in the isolated-replica view: each replica on its own
// synthetic host, numbered from `*next_host` on.
lqn::app_deployment isolated_deployment(const cluster::cluster_model& model,
                                        std::size_t a, req_per_sec rate,
                                        const std::vector<tier_sizing>& tiers,
                                        std::size_t* next_host) {
    lqn::app_deployment dep;
    dep.spec = &model.app(app_id{static_cast<std::int32_t>(a)});
    dep.rate = rate;
    dep.tiers.resize(dep.spec->tier_count());
    MISTRAL_CHECK(tiers.size() == dep.spec->tier_count());
    for (std::size_t t = 0; t < dep.spec->tier_count(); ++t) {
        for (int r = 0; r < tiers[t].replicas; ++r) {
            dep.tiers[t].replicas.push_back({(*next_host)++, tiers[t].cap});
        }
    }
    return dep;
}

}  // namespace

isolated_perf serial_evaluator::fold_isolated(std::vector<seconds> response_times) const {
    isolated_perf out;
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        const seconds rt = response_times[a];
        out.perf_rate += utility_.perf_rate(rates_[a], rt, targets_[a]);
        if (rt > targets_[a]) out.meets_all_targets = false;
    }
    out.response_times = std::move(response_times);
    return out;
}

isolated_perf serial_evaluator::compute_isolated(const app_sizing& s) const {
    MISTRAL_CHECK(s.size() == model_->app_count());
    std::vector<lqn::app_deployment> deps;
    std::size_t fake_host = 0;
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        deps.push_back(isolated_deployment(*model_, a, rates_[a], s[a], &fake_host));
    }
    const auto solved = lqn::solve(deps, fake_host, lqn_);
    std::vector<seconds> rts;
    rts.reserve(model_->app_count());
    for (const auto& app : solved.apps) rts.push_back(app.mean_response_time);
    return fold_isolated(std::move(rts));
}

lqn::app_result serial_evaluator::solve_isolated_app(
    std::size_t a, const std::vector<tier_sizing>& tiers) const {
    // A replica's host load, and so its inflation, depends only on that
    // replica, so hosts of its own reproduce compute_isolated's numbers.
    std::size_t hosts = 0;
    const std::vector<lqn::app_deployment> deps = {
        isolated_deployment(*model_, a, rates_[a], tiers, &hosts)};
    const auto loads = lqn::compute_host_loads(deps, hosts, lqn_);
    return lqn::solve_app(deps[0], loads.inflation, lqn_);
}

isolated_perf serial_evaluator::evaluate_isolated(const app_sizing& s) {
    MISTRAL_CHECK_MSG(!rates_.empty(), "begin_decision() before evaluate_isolated()");
    ++stats_.evaluations;
    obs_solves_.add();
    if (!options_.delta_eval) return compute_isolated(s);
    MISTRAL_CHECK(s.size() == model_->app_count());
    std::vector<seconds> rts(model_->app_count());
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        auto sig = make_isolated_signature(a, rates_[a], s[a]);
        if (const auto* hit = app_cache_.find(sig)) {
            ++stats_.isolated_hits;
            rts[a] = hit->mean_response_time;
            continue;
        }
        ++stats_.isolated_solves;
        auto solved = solve_isolated_app(a, s[a]);
        rts[a] = solved.mean_response_time;
        app_cache_.insert(std::move(sig), std::move(solved));
    }
    return fold_isolated(std::move(rts));
}

std::vector<isolated_perf> serial_evaluator::evaluate_isolated_batch(
    const std::vector<app_sizing>& sizings) {
    std::vector<isolated_perf> out;
    out.reserve(sizings.size());
    for (const auto& s : sizings) out.push_back(evaluate_isolated(s));
    return out;
}

void serial_evaluator::reset_memo() {
    memo_.clear();
    app_cache_.clear();
    stats_ = {};
}

// ---- parallel_evaluator ----------------------------------------------------

parallel_evaluator::parallel_evaluator(const cluster::cluster_model& model,
                                       utility_model utility,
                                       lqn::model_options lqn,
                                       evaluation_options options)
    : serial_evaluator(model, utility, lqn, options) {
    // The calling thread is worker zero; spawn the rest.
    workers_.reserve(options_.threads - 1);
    for (std::size_t i = 0; i + 1 < options_.threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

parallel_evaluator::~parallel_evaluator() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
}

void parallel_evaluator::worker_loop() {
    std::size_t seen_generation = 0;
    for (;;) {
        std::uint32_t generation = 0;
        std::size_t count = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return shutdown_ || job_generation_ != seen_generation;
            });
            if (shutdown_) return;
            seen_generation = job_generation_;
            generation = static_cast<std::uint32_t>(seen_generation);
            count = job_count_;
        }
        drain(generation, count);
    }
}

void parallel_evaluator::drain(std::uint32_t generation, std::size_t count) {
    for (;;) {
        std::uint64_t cursor = job_cursor_.load(std::memory_order_acquire);
        std::size_t i;
        for (;;) {
            // A cursor from a different generation means this job is already
            // over (and possibly replaced); claiming from it would hand out
            // the *new* job's indices against the old count.
            if (static_cast<std::uint32_t>(cursor >> 32) != generation) return;
            i = static_cast<std::uint32_t>(cursor);
            if (i >= count) return;
            if (job_cursor_.compare_exchange_weak(cursor, cursor + 1,
                                                  std::memory_order_acq_rel)) {
                break;
            }
        }
        try {
            job_(i);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!job_error_) job_error_ = std::current_exception();
        }
        if (job_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
            const std::lock_guard<std::mutex> lock(mutex_);
            done_.notify_all();
        }
    }
}

void parallel_evaluator::run_job(const std::function<void(std::size_t)>& fn,
                                 std::size_t count) {
    if (count == 0) return;
    std::uint32_t generation = 0;
    {
        // run_job only starts after the previous job fully completed, so no
        // worker is between claim and done-increment here and reseeding the
        // done counter is race-free.
        const std::lock_guard<std::mutex> lock(mutex_);
        job_ = fn;
        job_count_ = count;
        job_error_ = nullptr;
        job_done_.store(0, std::memory_order_relaxed);
        ++job_generation_;
        generation = static_cast<std::uint32_t>(job_generation_);
        job_cursor_.store(static_cast<std::uint64_t>(generation) << 32,
                          std::memory_order_release);
    }
    wake_.notify_all();
    drain(generation, count);  // the calling thread works the same queue
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] {
        return job_done_.load(std::memory_order_acquire) == count;
    });
    // All items are done, so no worker will call job_ again this generation.
    job_ = nullptr;
    job_count_ = 0;
    if (job_error_) {
        auto error = std::exchange(job_error_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void parallel_evaluator::parallel_for(std::size_t count,
                                      const std::function<void(std::size_t)>& fn) {
    // Pool dispatch costs a few wake-ups; below a handful of items the serial
    // loop wins outright and keeps the meter's work accounting honest.
    if (count <= 1 || workers_.empty()) {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }
    run_job(fn, count);
}

std::vector<isolated_perf> parallel_evaluator::evaluate_isolated_batch(
    const std::vector<app_sizing>& sizings) {
    MISTRAL_CHECK_MSG(!rates_.empty(),
                      "begin_decision() before evaluate_isolated_batch()");
    stats_.evaluations += sizings.size();
    obs_solves_.add(static_cast<std::int64_t>(sizings.size()));
    std::vector<isolated_perf> out(sizings.size());
    parallel_for(sizings.size(),
                 [&](std::size_t i) { out[i] = compute_isolated(sizings[i]); });
    return out;
}

std::vector<steady_utility> parallel_evaluator::evaluate_batch(
    const std::vector<cluster::configuration>& configs) {
    MISTRAL_CHECK_MSG(!rates_.empty(), "begin_decision() before evaluate_batch()");
    ++stats_.batches;
    std::vector<steady_utility> out(configs.size());
    std::vector<bool> resolved(configs.size(), false);
    // Memo lookups and duplicate folding stay on the calling thread so the
    // cache's LRU order — and with it every eviction — matches the serial
    // evaluator exactly.
    std::unordered_map<cluster::configuration, std::size_t> first_seen;
    std::vector<std::size_t> work;  // indices needing a real solve
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (const auto* hit = memo_.find(configs[i])) {
            ++stats_.cache_hits;
            obs_memo_hits_.add();
            out[i] = *hit;
            resolved[i] = true;
            continue;
        }
        const auto [it, inserted] = first_seen.emplace(configs[i], i);
        if (inserted) {
            ++stats_.cache_misses;
            obs_memo_misses_.add();
            work.push_back(i);
        } else {
            // Duplicate within the batch: solved once, copied below.
            ++stats_.cache_hits;
            obs_memo_hits_.add();
        }
    }
    if (!work.empty()) {
        stats_.evaluations += work.size();
        obs_solves_.add(static_cast<std::int64_t>(work.size()));
        if (options_.delta_eval) {
            solve_work_delta(configs, work, out);
        } else {
            stats_.app_solves += work.size() * model_->app_count();
            obs_app_solves_.add(
                static_cast<std::int64_t>(work.size() * model_->app_count()));
            parallel_for(work.size(), [&](std::size_t j) {
                out[work[j]] = compute(configs[work[j]]);
            });
        }
        // Publish in input order (deterministic LRU insertion order).
        for (const std::size_t i : work) {
            memo_.insert(configs[i], out[i]);
            resolved[i] = true;
        }
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (resolved[i]) continue;
        out[i] = out[first_seen.at(configs[i])];
    }
    return out;
}

void parallel_evaluator::solve_work_delta(
    const std::vector<cluster::configuration>& configs,
    const std::vector<std::size_t>& work, std::vector<steady_utility>& out) {
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    const std::size_t app_count = model_->app_count();

    // Phase A (calling thread): translate each missed configuration, probe
    // the app cache, and dedupe signatures pending within the batch. A
    // pending hit is counted as a cache hit — the serial order would have
    // inserted that signature's sub-solve before re-probing it — so hit and
    // miss totals match the serial evaluator exactly.
    struct delta_plan {
        std::vector<lqn::app_deployment> deps;
        lqn::host_loads loads;
        std::vector<lqn::app_result> apps;   // cache hits filled here
        std::vector<std::size_t> source;     // sub-job index, or npos if filled
    };
    struct sub_job {
        std::size_t plan = 0;
        std::size_t app = 0;
    };
    std::vector<delta_plan> plans(work.size());
    std::vector<sub_job> jobs;
    std::vector<app_signature> job_sigs;
    std::unordered_map<app_signature, std::size_t, app_signature_hash> pending;
    for (std::size_t p = 0; p < work.size(); ++p) {
        auto& plan = plans[p];
        plan.deps = cluster::to_lqn(*model_, configs[work[p]], rates_);
        plan.loads = lqn::compute_host_loads(plan.deps, model_->host_count(), lqn_);
        plan.apps.resize(app_count);
        plan.source.assign(app_count, npos);
        for (std::size_t a = 0; a < app_count; ++a) {
            auto sig = make_app_signature(a, rate_key_[a], plan.deps[a],
                                          plan.loads.inflation);
            if (const auto* hit = app_cache_.find(sig)) {
                ++stats_.app_cache_hits;
                obs_app_hits_.add();
                plan.apps[a] = *hit;
                continue;
            }
            if (const auto it = pending.find(sig); it != pending.end()) {
                ++stats_.app_cache_hits;
                obs_app_hits_.add();
                plan.source[a] = it->second;
                continue;
            }
            ++stats_.app_cache_misses;
            ++stats_.app_solves;
            obs_app_misses_.add();
            obs_app_solves_.add();
            plan.source[a] = jobs.size();
            pending.emplace(sig, jobs.size());
            jobs.push_back({p, a});
            job_sigs.push_back(std::move(sig));
        }
    }

    // Phase B (pool): the sub-solves are pure per-index work.
    std::vector<lqn::app_result> solved(jobs.size());
    parallel_for(jobs.size(), [&](std::size_t j) {
        const auto& job = jobs[j];
        solved[j] = lqn::solve_app(plans[job.plan].deps[job.app],
                                   plans[job.plan].loads.inflation, lqn_);
    });

    // Phase C (calling thread): publish sub-solves in miss order — the order
    // the serial evaluator inserts them — then assemble every plan.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        app_cache_.insert(std::move(job_sigs[j]), solved[j]);
    }
    for (std::size_t p = 0; p < work.size(); ++p) {
        auto& plan = plans[p];
        for (std::size_t a = 0; a < app_count; ++a) {
            if (plan.source[a] != npos) plan.apps[a] = solved[plan.source[a]];
        }
        out[work[p]] = assemble(configs[work[p]], plan.apps, plan.loads.utilization);
    }
}

// ---- factory ---------------------------------------------------------------

std::shared_ptr<utility_evaluator> make_evaluator(const cluster::cluster_model& model,
                                                  utility_model utility,
                                                  lqn::model_options lqn,
                                                  evaluation_options options) {
    if (options.threads <= 1) {
        return std::make_shared<serial_evaluator>(model, utility, lqn, options);
    }
    return std::make_shared<parallel_evaluator>(model, utility, lqn, options);
}

}  // namespace mistral::core
