#include "core/two_level.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/journal.h"

namespace mistral::core {

two_level_controller::two_level_controller(
    const cluster::cluster_model& model, const cost::cost_table& costs,
    std::vector<std::vector<std::size_t>> groups,
    const controller_builder& builder)
    : model_(&model), sink_(builder.build().sink) {
    MISTRAL_CHECK_MSG(!groups.empty(), "the two-level hierarchy needs level-1 groups");
    std::vector<bool> claimed(model.host_count(), false);
    for (std::size_t i = 0; i < groups.size(); ++i) {
        MISTRAL_CHECK_MSG(!groups[i].empty(), "group " << i << " owns no hosts");
        for (const std::size_t h : groups[i]) {
            MISTRAL_CHECK_MSG(h < model.host_count(),
                              "group " << i << " references unknown host " << h);
            MISTRAL_CHECK_MSG(!claimed[h], "host groups must be disjoint");
            claimed[h] = true;
        }
    }

    // The paper's first-level shape (Section II-C): reconsider every
    // interval, tune CPU caps and migrate, never replicate or power-cycle.
    controller_builder shaped = builder;
    shaped.band(0.0).menu({.cpu_tuning = true,
                           .replication = false,
                           .migration = true,
                           .host_power = false});
    level1_.reserve(groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
        auto& l1 = level1_.emplace_back();
        l1.hosts = std::move(groups[i]);
        std::sort(l1.hosts.begin(), l1.hosts.end());
        controller_options opts = shaped.build_for(i);
        opts.search.host_scope.assign(model.host_count(), false);
        for (const std::size_t h : l1.hosts) opts.search.host_scope[h] = true;
        l1.metrics = pod_metrics(sink_, std::to_string(i));
        l1.controller = std::make_unique<mistral_controller>(
            model, costs, std::move(opts), builder.make_meter());
    }
    escalation_ = builder.build_controller(model, costs);
    escalation_metrics_ = pod_metrics(sink_, "global");
}

strategy::outcome two_level_controller::decide(const decision_input& in) {
    outcome out;

    const auto d2 = escalation_->step(in);
    if (d2.invoked) {
        escalation_metrics_.record(d2);
        if (obs::journaling(sink_)) {
            std::vector<std::size_t> every_host(model_->host_count());
            std::iota(every_host.begin(), every_host.end(), std::size_t{0});
            journal_pod_decision(sink_, *model_, in.current, every_host, -1,
                                 std::numeric_limits<watts>::infinity(), d2, in.now);
        }
        // An invoked search costs time and power whether or not a plan came
        // back; self-aware accounting keeps the empty-plan case on the books.
        out.invoked = true;
        out.decision_delay = d2.stats.duration;
        out.decision_power_cost = d2.stats.search_power_cost;
        out.stats.merge(d2.stats);
        if (!d2.actions.empty()) {
            // The escalation's reconfiguration preempts level-1 refinements
            // for this interval (they would race the larger change).
            out.actions = d2.actions;
            out.stats = d2.stats;
            return out;
        }
    }

    // Level-1 controllers refine sequentially over a shared probe; their
    // disjoint scopes keep sibling plans composable, and since they run
    // concurrently in the model the decision delay is the slowest one, not
    // the sum — added to the escalation search's duration when one preceded
    // them.
    cluster::configuration probe = in.current;
    seconds level1_delay = 0.0;
    for (std::size_t i = 0; i < level1_.size(); ++i) {
        auto& l1 = level1_[i];
        decision_input step_in;
        step_in.now = in.now;
        step_in.rates = in.rates;
        step_in.current = probe;
        step_in.last_interval_utility = in.last_interval_utility;
        const auto d = l1.controller->step(step_in);
        l1.metrics.record(d);
        journal_pod_decision(sink_, *model_, probe, l1.hosts,
                             static_cast<std::int64_t>(i),
                             std::numeric_limits<watts>::infinity(), d, in.now);
        if (!d.invoked) continue;
        out.invoked = true;
        level1_delay = std::max(level1_delay, d.stats.duration);
        out.decision_power_cost += d.stats.search_power_cost;
        out.stats.merge(d.stats);
        for (const auto& a : d.actions) {
            // Skip defensively if a sibling's change made one inapplicable.
            if (!cluster::applicable(*model_, probe, a)) continue;
            probe = cluster::apply(*model_, probe, a);
            out.actions.push_back(a);
        }
    }
    out.decision_delay += level1_delay;
    out.stats.duration = out.decision_delay;
    out.stats.search_power_cost = out.decision_power_cost;
    return out;
}

}  // namespace mistral::core
