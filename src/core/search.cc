#include "core/search.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>

#include "cluster/translate.h"
#include "common/check.h"
#include "core/drafting.h"
#include "core/planner.h"
#include "obs/journal.h"
#include "obs/profile.h"

namespace mistral::core {

namespace {

using cluster::action;
using cluster::configuration;

struct vertex {
    configuration config;
    int parent = -1;
    std::optional<action> via;   // edge from parent (nullopt for the root)
    dollars accrued = 0.0;       // Σ d(a)·transient-rate along the path
    seconds duration = 0.0;      // Σ d(a)
    int depth = 0;               // actions on the path
    double utility = 0.0;        // Algorithm 1's vertex utility (avg rate)
    bool terminal = false;       // reached via the "null" edge
    // Hosts whose CPU caps overbook the packing limit. Every vertex is
    // structurally valid (see find), so it is a candidate iff this is 0.
    std::size_t overbooked = 0;
};

// VM the action touches; invalid id for host power actions.
vm_id touched_vm(const action& a) {
    return std::visit(
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
}

// Fixed $ charged per planned action: the management plane's actuation cost
// (API calls, scheduler churn, operator risk). Without it, near-zero-cost
// actions (CPU-cap steps) make arbitrarily long plans value-ties, and the
// search wanders.
constexpr dollars per_action_overhead = 0.01;

// Eq. 3 plan valuation (Section IV-B) for one decision's rates, shared by
// find() and value_plan(): each action accrues at its transient rate for its
// cost-table duration, and a plan is valued by its *average utility rate*
// over its own evaluation horizon H = max(CW, D + M), where D is the plan's
// total duration and M one monitoring interval. The horizon floor D + M
// keeps rescues sensible when the predicted stability interval has collapsed
// (during a ramp, CW shrinks to its minimum, yet a rescue plan's benefit
// genuinely persists at least until the controller can next revisit — one
// interval past completion). Averaging over H rather than summing makes
// horizon-stretching unprofitable: padding a plan with harmless actions
// dilutes its average instead of annexing extra accounted time, so Eq. 3's
// ordering over same-length plans is preserved while plans of different
// lengths compare fairly. Since every instantaneous accrual rate is bounded
// by the cap (the ideal rate), an average never exceeds it and the
// ideal-rate cost-to-go stays admissible.
struct plan_pricer {
    const cluster::cluster_model& model;
    const utility_model& utility;
    const std::vector<req_per_sec>& rates;
    const std::vector<seconds>& targets;  // planning targets for `rates`
    seconds cw;
    double cap_rate;

    // app × host occupancy bitmap: occ[s·H + h] is nonzero iff application s
    // has a deployed VM on host h. Computed once per configuration an action
    // fires from, so the colocation test in accrue() is O(|touched|) instead
    // of a VM-inventory scan per (action, app). Refills `occ` in place.
    void occupancy(const configuration& c, std::vector<std::uint8_t>& occ) const {
        const std::size_t host_count = model.host_count();
        occ.assign(model.app_count() * host_count, 0);
        for (const auto& desc : model.vms()) {
            const auto& p = c.placement(desc.vm);
            if (p) occ[desc.app.index() * host_count + p->host.index()] = 1;
        }
    }

    // `accrued` after firing `a` (cost entry `entry`, touching the hosts
    // `touched`) from a configuration with steady evaluation `pe` and
    // occupancy `occ`. The target VM's application pays the action's RT
    // delta, applications co-located on a touched host the co-located delta.
    // Transient accrual is clamped at the cap rate so that time spent
    // mid-adaptation can never appear *better* than the best legal steady
    // state (which would invite lingering in intermediate configurations
    // and break the heuristic's bound).
    [[nodiscard]] dollars accrue(dollars accrued, const steady_utility& pe,
                                 const std::vector<std::uint8_t>& occ,
                                 const action& a, const cost::cost_entry& entry,
                                 const touched_hosts& touched) const {
        const std::size_t host_count = model.host_count();
        const vm_id vm = touched_vm(a);
        double rate = utility.power_rate(std::max(0.0, pe.power + entry.delta_power));
        for (std::size_t s = 0; s < model.app_count(); ++s) {
            seconds rt = pe.response_times[s];
            if (vm.valid() && model.vm(vm).app.index() == s) {
                rt += entry.delta_rt_target;
            } else if (!touched.empty()) {
                bool colocated = false;
                for (const host_id h : touched) {
                    if (occ[s * host_count + h.index()] != 0) {
                        colocated = true;
                        break;
                    }
                }
                if (colocated) rt += entry.delta_rt_colocated;
            }
            rate += utility.perf_rate(rates[s], rt, targets[s]);
        }
        return accrued + entry.duration * std::min(rate, cap_rate) -
               per_action_overhead;
    }

    // Average rate of: `accrued` transient dollars over `duration`, then
    // `rate` until H.
    [[nodiscard]] double average_rate(dollars accrued, seconds duration,
                                      double rate) const {
        const seconds h =
            std::max(cw, duration + utility.params().monitoring_interval);
        return (accrued + (h - duration) * rate) / h;
    }
};

}  // namespace

void search_stats::merge(const search_stats& other) {
    duration += other.duration;
    expansions += other.expansions;
    generated += other.generated;
    pruned = pruned || other.pruned;
    search_power_cost += other.search_power_cost;
    eval_cache_hits += other.eval_cache_hits;
    eval_cache_misses += other.eval_cache_misses;
    eval_app_solves += other.eval_app_solves;
    eval_app_cache_hits += other.eval_app_cache_hits;
    eval_app_cache_misses += other.eval_app_cache_misses;
}

adaptation_search::adaptation_search(const cluster::cluster_model& model,
                                     utility_model utility, cost::cost_table costs,
                                     search_options options)
    : adaptation_search(model, utility, std::move(costs), options,
                        std::make_shared<serial_evaluator>(model, utility, options.lqn,
                                                           options.sink)) {}

adaptation_search::adaptation_search(const cluster::cluster_model& model,
                                     utility_model utility, cost::cost_table costs,
                                     search_options options,
                                     std::shared_ptr<serial_evaluator> evaluator)
    : model_(&model),
      utility_(utility),
      costs_(std::move(costs)),
      options_(std::move(options)),
      evaluator_(std::move(evaluator)),
      perf_pwr_(model, utility,
                {.lqn = options_.lqn, .app_hosts = options_.app_hosts},
                evaluator_) {
    MISTRAL_CHECK(options_.prune_keep_fraction > 0.0 &&
                  options_.prune_keep_fraction <= 1.0);
    MISTRAL_CHECK(options_.delay_threshold_fraction > 0.0);
    MISTRAL_CHECK(options_.max_expansions >= 1);
    MISTRAL_CHECK(options_.stop_factor >= 1.0);
    MISTRAL_CHECK(options_.max_plan_actions >= 1);
    MISTRAL_CHECK(options_.power_cap > 0.0);
    if (!options_.app_hosts.empty()) {
        MISTRAL_CHECK(options_.app_hosts.size() == model.app_count());
        for (const auto& row : options_.app_hosts) {
            MISTRAL_CHECK(row.size() == model.host_count());
        }
    }
    if (!options_.host_scope.empty()) {
        MISTRAL_CHECK(options_.host_scope.size() == model.host_count());
    }
    if (auto* reg = obs::metrics_of(options_.sink)) {
        obs_expansions_ = reg->register_counter(
            "mistral_search_expansions_total",
            "A* vertices expanded across all decisions");
        obs_generated_ = reg->register_counter(
            "mistral_search_generated_total",
            "A* children generated across all decisions");
        obs_duration_ = reg->register_histogram(
            "mistral_search_duration_seconds",
            {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0},
            "Meter-elapsed duration of each adaptation search");
    }
}

void adaptation_search::set_power_cap(watts cap) {
    MISTRAL_CHECK(cap > 0.0);
    options_.power_cap = cap;
}

search_result adaptation_search::find(const configuration& current,
                                      const std::vector<req_per_sec>& rates,
                                      seconds cw, dollars expected_utility,
                                      search_meter& meter, seconds now) const {
    const auto& model = *model_;
    MISTRAL_CHECK(rates.size() == model.app_count());
    MISTRAL_CHECK(cw > 0.0);
    meter.begin();

    auto& engine = *evaluator_;
    engine.begin_decision(rates);
    const auto& targets = engine.targets();
    const evaluation_stats stats0 = engine.stats();

    // $/s drawn by one busy search worker, in utility units.
    const double search_cost_rate =
        -utility_.power_rate(meter.search_power());  // ≥ 0

    search_result stay;
    stay.target = current;

    // Per-decision profile: per-depth expansion/meter-time attribution plus
    // the budget state at finish. Entirely skipped (one branch per
    // expansion) when no journaling sink is attached.
    const bool profiling = obs::journaling(options_.sink);
    obs::search_profile prof;
    int prof_pending_depth = -1;   // depth whose meter span is still open
    seconds prof_span_start = 0.0;
    auto note_depth = [&](int depth, double expanded, seconds spent) {
        const auto d = static_cast<std::size_t>(depth);
        if (prof.depth_expansions.size() <= d) {
            prof.depth_expansions.resize(d + 1, 0.0);
            prof.depth_meter_time.resize(d + 1, 0.0);
        }
        prof.depth_expansions[d] += expanded;
        prof.depth_meter_time[d] += spent;
    };
    auto emit_profile = [&](const search_result& r) {
        obs_duration_.observe(r.stats.duration);
        if (!profiling) return;
        if (prof_pending_depth >= 0) {
            note_depth(prof_pending_depth, 1.0,
                       meter.elapsed() - prof_span_start);
            prof_pending_depth = -1;
        }
        prof.control_window = cw;
        prof.budget = expected_utility;
        prof.duration = r.stats.duration;
        prof.power_cost = r.stats.search_power_cost;
        prof.expansions = static_cast<std::int64_t>(r.stats.expansions);
        prof.generated = static_cast<std::int64_t>(r.stats.generated);
        prof.pruned = r.stats.pruned;
        prof.meter = meter.kind();
        prof.plan_actions = static_cast<std::int64_t>(r.actions.size());
        prof.expected_utility = r.expected_utility;
        prof.ideal_utility = r.ideal_utility;
        options_.sink->record(prof.to_event(now));
    };

    // A degraded configuration (a host crash left a tier under its replica
    // minimum) cannot be evaluated by the steady-state engine; the
    // controller's reconciliation repairs it before the optimizer runs again.
    if (!cluster::structurally_valid(model, current)) {
        stay.stats.duration = meter.elapsed();
        stay.stats.search_power_cost = stay.stats.duration * search_cost_rate;
        emit_profile(stay);
        return stay;
    }

    const auto ideal = perf_pwr_.optimize(rates, &current);
    stay.ideal_utility = ideal.feasible ? ideal.utility_rate * cw : 0.0;
    if (!ideal.feasible || ideal.ideal == current) {
        stay.stats.duration = meter.elapsed();
        stay.stats.search_power_cost = stay.stats.duration * search_cost_rate;
        emit_profile(stay);
        return stay;
    }
    const double ideal_rate = ideal.utility_rate;

    // Pruning distance to the ideal configuration, with cap_distance's
    // ideal-derived VM weights hoisted: they depend only on `ideal`, so
    // computing them per child (as the free function does) repeats identical
    // work thousands of times per decision. Same accumulation order, so the
    // result is bit-identical to cap_distance + placement_distance.
    std::vector<double> prune_weights(model.vm_count(), 0.05);
    double prune_weight_sum = 0.0;
    for (const auto& desc : model.vms()) {
        const auto& p = ideal.ideal.placement(desc.vm);
        if (p) prune_weights[desc.vm.index()] = p->cpu_cap;
        prune_weight_sum += prune_weights[desc.vm.index()];
    }
    auto prune_distance = [&](const configuration& c) -> double {
        double sum = 0.0;
        std::size_t same = 0;
        for (const auto& desc : model.vms()) {
            const auto& pa = c.placement(desc.vm);
            const auto& pb = ideal.ideal.placement(desc.vm);
            const double ca = pa ? pa->cpu_cap : 0.0;
            const double cb = pb ? pb->cpu_cap : 0.0;
            sum += prune_weights[desc.vm.index()] / prune_weight_sum *
                   (ca - cb) * (ca - cb);
            same += ((!pa && !pb) || (pa && pb && pa->host == pb->host)) ? 1 : 0;
        }
        return std::sqrt(sum) +
               (1.0 - static_cast<double>(same) /
                          static_cast<double>(model.vm_count()));
    };

    // Cost entries for this decision's rates, one lookup per (kind, app, tier).
    decision_costs costs(model, costs_, rates);

    // Initial room for the graph. Most searches record a few dozen vertices;
    // the large ones (thousands) grow both containers a few times.
    constexpr std::size_t expected_vertices = 512;
    std::vector<vertex> vertices;
    vertices.reserve(expected_vertices);
    // Max-heap of (utility, vertex index); stale entries skipped on pop.
    using heap_entry = std::pair<double, std::size_t>;
    std::priority_queue<heap_entry> open;
    // Best utility recorded per configuration (non-terminal vertices), keyed
    // by the configuration of a representative vertex.
    dedup_table seen(expected_vertices);
    auto config_of = [&](std::size_t i) -> const configuration& {
        return vertices[i].config;
    };

    // The root is structurally valid (checked above) and every edge is an
    // action `applicable` accepted, so by induction every vertex is
    // structurally valid: candidacy reduces to the packing test, which
    // draft_child updates on the ≤ 2 hosts each action touches.
    vertex root;
    root.config = current;
    root.utility = ideal_rate;  // average-rate bound: nothing beats the ideal
    root.overbooked = overbooked_hosts(model, current);
    vertices.push_back(std::move(root));
    open.push({vertices[0].utility, 0});
    (void)seen.try_emplace(current, 0, vertices[0].utility, config_of);

    search_stats stats;
    dollars uh = expected_utility;
    const double uh_rate = cw > 0.0 ? expected_utility / cw : 0.0;
    const seconds delay_threshold = options_.delay_threshold_fraction * cw;
    const steady_utility root_eval = engine.evaluate(current);
    const double current_rate = root_eval.rate;
    dollars ut = 0.0, upwr_t = 0.0;
    seconds last_elapsed = meter.elapsed();
    bool prune_mode = false;

    int best_terminal = -1;

    // Plan valuation: Eq. 3 as an average rate over H = max(CW, D + M), with
    // transient accrual clamped at the ideal rate (see plan_pricer).
    const plan_pricer pricer{model, utility_, rates, targets, cw, ideal_rate};

    // Drafts the child vertex reached by firing `a` from vertex `v` (index
    // `parent_idx`): everything except the steady-state valuation, which
    // value_child fills in. `pe` is the parent's steady evaluation and `occ`
    // its occupancy.
    auto draft_child = [&](const vertex& v, std::size_t parent_idx,
                           const steady_utility& pe,
                           const std::vector<std::uint8_t>& occ,
                           const action& a) -> vertex {
        const auto& entry = costs.lookup(a);
        const auto touched = affected_hosts(v.config, a);
        vertex c;
        c.via = a;
        c.parent = static_cast<int>(parent_idx);
        c.config = apply(model, v.config, a);
        c.overbooked =
            overbooked_after(model, v.config, v.overbooked, c.config, touched);
        c.accrued = pricer.accrue(v.accrued, pe, occ, a, entry, touched);
        c.duration = v.duration + entry.duration;
        c.depth = v.depth + 1;
        return c;
    };

    // Vertex valuation: candidates by their own steady rate, intermediates
    // by the ideal bound. The 1e-9·D term breaks ties toward shorter plans.
    auto value_child = [&](vertex& c, double steady) {
        c.utility = pricer.average_rate(c.accrued, c.duration, steady) -
                    1e-9 * c.duration;
    };

    // Records a vertex if it improves on anything previously seen for its
    // configuration; returns its index or -1 when dominated.
    auto record_vertex = [&](vertex&& vc) -> int {
        auto [seen_at, inserted] =
            seen.try_emplace(vc.config, vertices.size(), vc.utility, config_of);
        if (!inserted) {
            if (vc.utility <= seen_at->best + 1e-12) return -1;
            seen_at->best = vc.utility;
        }
        vertices.push_back(std::move(vc));
        open.push({vertices.back().utility, vertices.size() - 1});
        return static_cast<int>(vertices.size()) - 1;
    };

    // Adds the "null"-edge terminal for a candidate vertex; `pe` is its
    // steady evaluation. A terminal carries no configuration of its own: it
    // lands where its parent is.
    auto add_terminal = [&](std::size_t idx, const steady_utility& pe) {
        const vertex& v = vertices[idx];
        // The power budget gates terminal candidacy only: like the packing
        // constraint, intermediates may exceed it while a plan is in flight,
        // but the plan must land inside the cap.
        if (!pe.candidate || pe.power > options_.power_cap) return;
        vertex term;
        term.parent = static_cast<int>(idx);
        term.terminal = true;
        term.utility = pricer.average_rate(v.accrued, v.duration, pe.rate);
        if (best_terminal < 0 ||
            term.utility >
                vertices[static_cast<std::size_t>(best_terminal)].utility) {
            vertices.push_back(std::move(term));
            best_terminal = static_cast<int>(vertices.size()) - 1;
            open.push({vertices.back().utility, vertices.size() - 1});
        }
    };

    auto finish = [&](int terminal_index) -> search_result {
        stats.duration = meter.elapsed();
        stats.search_power_cost = stats.duration * search_cost_rate;
        const auto& es = engine.stats();
        stats.eval_cache_misses = es.evaluations - stats0.evaluations;
        stats.eval_app_solves = es.app_solves - stats0.app_solves;
        stats.eval_app_cache_hits = es.app_cache_hits - stats0.app_cache_hits;
        stats.eval_app_cache_misses = es.app_cache_misses - stats0.app_cache_misses;
        if (terminal_index < 0) {
            search_result out = stay;
            out.stats = stats;
            emit_profile(out);
            return out;
        }
        search_result out;
        out.ideal_utility = stay.ideal_utility;
        out.stats = stats;
        const auto& term = vertices[static_cast<std::size_t>(terminal_index)];
        out.target = vertices[static_cast<std::size_t>(term.parent)].config;
        // Walk the parent chain; the terminal's own edge is the null action.
        std::vector<action> path;
        for (int i = term.parent; i >= 0; i = vertices[static_cast<std::size_t>(i)].parent) {
            const auto& v = vertices[static_cast<std::size_t>(i)];
            if (v.via) path.push_back(*v.via);
        }
        std::reverse(path.begin(), path.end());
        // Splice out zero-net-effect detours: an A* path can carry them
        // legitimately (a revisit with better accrued value), but executing
        // them buys nothing.
        const std::size_t path_actions = path.size();
        out.actions = compress_plan(model, current, std::move(path));
        out.spliced_actions = path_actions - out.actions.size();
        // Report the value of the plan that is executed: the terminal's
        // average rate in dollars over the window, or, when a detour was
        // spliced, the same Eq. 3 valuation of the shorter plan.
        out.expected_utility =
            out.spliced_actions == 0
                ? term.utility * cw
                : value_plan(current, out.actions, rates, cw, ideal_rate);
        emit_profile(out);
        return out;
    };

    // The occupancy of the configuration children are drafted from.
    std::vector<std::uint8_t> occ;

    // Seed the graph with the planner's route to the ideal configuration so
    // a full reconfiguration — and every partial prefix of it — is a known
    // option from the start; the A* then explores cheaper deviations around
    // it. Without seeding the loose ideal bound makes best-first exploration
    // effectively breadth-first, and deep consolidations are never reached
    // within the self-aware search budget.
    {
        // The seeded route is normally exempt from max_plan_actions: it
        // comes from the deterministic planner, which cannot pad, and
        // truncating a full-cluster rescue mid-route would leave only
        // useless prefixes. The greedy degraded rung opts out of the
        // exemption (seed_beyond_plan_limit = false) — there the one-action
        // bound is the contract, and the route's first step is still seeded
        // as a candidate. Each step's configuration depends on the previous,
        // so this short chain (≤ 64 evaluations) stays serial.
        const int seed_limit =
            options_.seed_beyond_plan_limit
                ? 64
                : static_cast<int>(std::min<std::size_t>(
                      options_.max_plan_actions, 64));
        std::size_t at = 0;
        steady_utility at_eval = root_eval;  // steady evaluation of vertices[at]
        int seeded = 0;
        for (const auto& a : plan_transition(model, current, ideal.ideal)) {
            // Not held across record_vertex, which may reallocate vertices.
            const vertex& v = vertices[at];
            if (++seeded > seed_limit || !options_.menu.allows(kind_of(a)) ||
                !applicable(model, v.config, a) ||
                !action_allowed(model, options_, v.config, a)) {
                break;
            }
            const seconds seed_start = profiling ? meter.elapsed() : 0.0;
            meter.on_expansion();
            pricer.occupancy(v.config, occ);
            vertex c = draft_child(v, at, at_eval, occ, a);
            // A recorded step's one evaluation serves its valuation (when it
            // is a candidate), its terminal and the next step's draft.
            const bool candidate = c.overbooked == 0;
            steady_utility ce;
            if (candidate) ce = engine.evaluate(c.config);
            value_child(c, candidate ? ce.rate : ideal_rate);
            const int idx = record_vertex(std::move(c));
            if (idx < 0) break;
            at = static_cast<std::size_t>(idx);
            at_eval = candidate ? std::move(ce) : engine.evaluate(vertices[at].config);
            add_terminal(at, at_eval);
            ++stats.generated;
            obs_generated_.add();
            // Seeded steps are charged like expansions; attribute their meter
            // time to the child's depth (without counting an expansion) so
            // the route's cost shows up in the profile.
            if (profiling) {
                note_depth(vertices[at].depth, 0.0,
                           meter.elapsed() - seed_start);
            }
        }
    }

    // Per-expansion buffers, reused so an expansion allocates only the
    // configurations of the children it records.
    std::vector<action> acts;
    std::vector<std::pair<double, std::size_t>> scored;  // (distance, act index)
    std::vector<vertex> children;
    configuration scratch;  // a pruning candidate's configuration

    while (!open.empty() && stats.expansions < options_.max_expansions) {
        const auto [u, idx] = open.top();
        open.pop();
        if (vertices[idx].terminal) {
            return finish(static_cast<int>(idx));
        }
        {
            const auto* s = seen.find(vertices[idx].config, config_of);
            if (s != nullptr && u < s->best - 1e-12) continue;  // stale
        }

        ++stats.expansions;
        obs_expansions_.add();
        const seconds now_elapsed = meter.elapsed();
        if (profiling) {
            // Everything the meter charged since the previous expansion
            // belongs to that expansion; open a span for this one.
            if (prof_pending_depth >= 0) {
                note_depth(prof_pending_depth, 1.0,
                           now_elapsed - prof_span_start);
            }
            prof_pending_depth = vertices[idx].depth;
            prof_span_start = now_elapsed;
        }
        ut += (now_elapsed - last_elapsed) * current_rate;
        upwr_t += (now_elapsed - last_elapsed) * search_cost_rate;
        uh -= (now_elapsed - last_elapsed) * uh_rate;
        last_elapsed = now_elapsed;
        if (options_.self_aware && !prune_mode &&
            ((ut + upwr_t) >= uh || now_elapsed >= delay_threshold)) {
            prune_mode = true;
        }
        if (options_.self_aware &&
            now_elapsed >= options_.stop_factor * delay_threshold &&
            best_terminal >= 0) {
            return finish(best_terminal);
        }

        // Terminal ("null") child from candidate configurations. The one
        // steady evaluation of the expanded vertex serves it and the drafting
        // of every action child below.
        const auto pe = engine.evaluate(vertices[idx].config);
        add_terminal(idx, pe);
        // Not held across record_vertex, which may reallocate vertices.
        const vertex& v = vertices[idx];

        // Action children. The meter charges per child *generated* — child
        // construction (cost lookup + utility estimation) is where a real
        // controller burns its time and power, so search durations scale
        // with the branching factor, i.e. with cluster size (Table I).
        // Children that pruning ranks away are charged too, so the modeled
        // self-cost does not depend on how cheaply they are ranked. One
        // charge covers the whole expansion.
        if (static_cast<std::size_t>(v.depth) >= options_.max_plan_actions) continue;
        acts.clear();
        for (const auto& a : enumerate_actions(model, v.config, options_.menu)) {
            if (action_allowed(model, options_, v.config, a)) acts.push_back(a);
        }
        if (acts.empty()) continue;
        meter.charge(acts.size(), 1);
        stats.generated += acts.size();
        obs_generated_.add(static_cast<std::int64_t>(acts.size()));

        // The children to draft, in the order they are recorded: all of them,
        // or under pruning the ones closest to the ideal configuration, by
        // (distance, action index). Ranking needs only each child's
        // configuration, built in one reused scratch, so the children pruning
        // drops are never drafted or evaluated. Their cost entries are still
        // looked up, so a missing measurement throws as drafting would.
        std::size_t keep = acts.size();
        if (prune_mode) {
            stats.pruned = true;
            scored.clear();
            for (std::size_t i = 0; i < acts.size(); ++i) {
                (void)costs.lookup(acts[i]);
                scratch = v.config;
                cluster::apply_in_place(model, scratch, acts[i]);
                scored.push_back({prune_distance(scratch), i});
            }
            std::sort(scored.begin(), scored.end());
            keep = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::ceil(options_.prune_keep_fraction *
                                 static_cast<double>(acts.size()))));
        }

        // Draft each kept child (apply + incremental candidacy + transient
        // accounting, all pure given the parent), then value it: candidates
        // by their steady state, the rest by the ideal bound.
        pricer.occupancy(v.config, occ);
        children.clear();
        for (std::size_t k = 0; k < keep; ++k) {
            const action& a = acts[prune_mode ? scored[k].second : k];
            vertex c = draft_child(v, idx, pe, occ, a);
            value_child(c, c.overbooked == 0 ? engine.evaluate(c.config).rate
                                             : ideal_rate);
            children.push_back(std::move(c));
        }
        for (auto& c : children) {
            record_vertex(std::move(c));
        }
    }
    // Expansion budget exhausted: settle for the best terminal found so far.
    return finish(best_terminal);
}

dollars adaptation_search::value_plan(const configuration& current,
                                      const std::vector<action>& plan,
                                      const std::vector<req_per_sec>& rates,
                                      seconds cw, double cap_rate) const {
    const auto& model = *model_;
    auto& engine = *evaluator_;
    engine.begin_decision(rates);
    decision_costs costs(model, costs_, rates);
    const plan_pricer pricer{model, utility_, rates, engine.targets(), cw, cap_rate};
    // find()'s draft_child accounting along a fixed action sequence.
    configuration c = current;
    dollars accrued = 0.0;
    seconds duration = 0.0;
    std::vector<std::uint8_t> occ;
    for (const action& a : plan) {
        const auto& entry = costs.lookup(a);
        pricer.occupancy(c, occ);
        accrued = pricer.accrue(accrued, engine.evaluate(c), occ, a, entry,
                                affected_hosts(c, a));
        duration += entry.duration;
        cluster::apply_in_place(model, c, a);
    }
    return pricer.average_rate(accrued, duration, engine.evaluate(c).rate) * cw;
}

}  // namespace mistral::core
