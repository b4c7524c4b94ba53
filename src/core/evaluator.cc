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

// ---- app_solve_cache -------------------------------------------------------

app_solve_cache::app_solve_cache(std::size_t capacity) : capacity_(capacity) {
    MISTRAL_CHECK(capacity >= 1);
}

const seconds* app_solve_cache::find(const app_signature& sig) {
    const auto it = index_.find(sig);
    if (it == index_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.use);  // move to front
    return &it->second.response_time;
}

void app_solve_cache::insert(app_signature sig, seconds response_time) {
    const auto [it, inserted] = index_.try_emplace(std::move(sig));
    it->second.response_time = response_time;
    if (!inserted) {
        lru_.splice(lru_.begin(), lru_, it->second.use);
        return;
    }
    lru_.push_front(&it->first);
    it->second.use = lru_.begin();
    while (index_.size() > capacity_) {
        // Find before pop: the list entry points at the key being erased.
        const auto victim = index_.find(*lru_.back());
        lru_.pop_back();
        index_.erase(victim);
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

app_signature make_app_signature(std::size_t app, req_per_sec rate,
                                 const lqn::app_deployment& dep,
                                 const std::vector<double>& inflation) {
    app_signature sig;
    std::size_t n = 2;
    for (const auto& tier : dep.tiers) n += 1 + 2 * tier.replicas.size();
    sig.words.reserve(n);
    sig.words.push_back(app);
    sig.words.push_back(bits_of(rate));
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

namespace {

// Per-app sub-solve entries kept (LRU). Entries are small (a key and one
// response time) and persist across decisions, so one decision's working set fits many
// times over.
constexpr std::size_t kAppCacheCapacity = 65536;

}  // namespace

serial_evaluator::serial_evaluator(const cluster::cluster_model& model,
                                   utility_model utility, lqn::model_options lqn,
                                   obs::sink* sink)
    : model_(&model), utility_(utility), lqn_(lqn), app_cache_(kAppCacheCapacity) {
    if (auto* reg = obs::metrics_of(sink)) {
        obs_solves_ = reg->register_counter(
            "mistral_eval_solves_total", "configuration evaluations");
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
    // A NaN rate would silently poison every signature it enters (NaN never
    // compares equal); a negative rate is a caller bug.
    for (const req_per_sec r : rates) {
        MISTRAL_CHECK_MSG(std::isfinite(r) && r >= 0.0,
                          "request rates must be finite and non-negative");
    }
    rates_ = rates;
    targets_.resize(model_->app_count());
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        targets_[a] = utility_.planning_target(
            model_->app(app_id{static_cast<std::int32_t>(a)})
                .target_response_time(rates[a]));
    }
}

steady_utility serial_evaluator::compute(const cluster::configuration& config) const {
    const auto solved = lqn::solve(cluster::to_lqn(*model_, config, rates_),
                                   model_->host_count(), lqn_);
    std::vector<seconds> response_times;
    response_times.reserve(solved.apps.size());
    for (const auto& app : solved.apps) response_times.push_back(app.mean_response_time);
    return assemble(config, std::move(response_times), solved.host_utilization);
}

steady_utility serial_evaluator::assemble(
    const cluster::configuration& config, std::vector<seconds> response_times,
    const std::vector<fraction>& host_utilization) const {
    steady_utility out;
    out.power = cluster::predicted_power(*model_, config, host_utilization);
    out.power_rate = utility_.power_rate(out.power);
    out.response_times = std::move(response_times);
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        const seconds rt = out.response_times[a];
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

steady_utility serial_evaluator::evaluate(const cluster::configuration& config) {
    MISTRAL_CHECK_MSG(!rates_.empty(), "begin_decision() before evaluate()");
    ++stats_.evaluations;
    obs_solves_.add();
    const auto deps = cluster::to_lqn(*model_, config, rates_);
    const auto loads = lqn::compute_host_loads(deps, model_->host_count(), lqn_);
    std::vector<seconds> rts(deps.size());
    for (std::size_t a = 0; a < deps.size(); ++a) {
        auto sig = make_app_signature(a, rates_[a], deps[a], loads.inflation);
        if (const seconds* hit = app_cache_.find(sig)) {
            ++stats_.app_cache_hits;
            obs_app_hits_.add();
            rts[a] = *hit;
            continue;
        }
        ++stats_.app_cache_misses;
        ++stats_.app_solves;
        obs_app_misses_.add();
        obs_app_solves_.add();
        rts[a] = lqn::solve_app(deps[a], loads.inflation, lqn_).mean_response_time;
        app_cache_.insert(std::move(sig), rts[a]);
    }
    return assemble(config, std::move(rts), loads.utilization);
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

seconds serial_evaluator::solve_isolated_app(
    std::size_t a, const std::vector<tier_sizing>& tiers) const {
    // A replica's host load, and so its inflation, depends only on that
    // replica, so hosts of its own reproduce compute_isolated's numbers.
    std::size_t hosts = 0;
    const std::vector<lqn::app_deployment> deps = {
        isolated_deployment(*model_, a, rates_[a], tiers, &hosts)};
    const auto loads = lqn::compute_host_loads(deps, hosts, lqn_);
    return lqn::solve_app(deps[0], loads.inflation, lqn_).mean_response_time;
}

isolated_perf serial_evaluator::evaluate_isolated(const app_sizing& s) {
    MISTRAL_CHECK_MSG(!rates_.empty(), "begin_decision() before evaluate_isolated()");
    MISTRAL_CHECK(s.size() == model_->app_count());
    std::vector<seconds> rts(model_->app_count());
    for (std::size_t a = 0; a < model_->app_count(); ++a) {
        auto sig = make_isolated_signature(a, rates_[a], s[a]);
        if (const seconds* hit = app_cache_.find(sig)) {
            ++stats_.isolated_hits;
            rts[a] = *hit;
            continue;
        }
        ++stats_.isolated_solves;
        rts[a] = solve_isolated_app(a, s[a]);
        app_cache_.insert(std::move(sig), rts[a]);
    }
    return fold_isolated(std::move(rts));
}

void serial_evaluator::reset() {
    app_cache_.clear();
    stats_ = {};
}

}  // namespace mistral::core
