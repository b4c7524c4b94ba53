// The paper's two-level hierarchical controller (Section II-C, Table I).
//
// Level 1 is one plain `mistral_controller` per host group: band 0 (it
// reconsiders every interval), CPU tuning plus migration, and a search
// confined to the group's hosts (search_options::host_scope). It still sees
// and values every application, so its cost does not shrink with the group —
// the paper's shape, which Table I reproduces. Level 2 is one escalation
// controller over the whole cluster on the builder's base options (band
// 8 req/s by default, full menu); its non-empty plans preempt the level-1
// refinements for that interval. Level-1 group i's options are the base, then
// the level-1 shape, then the builder's pod(i) override.
//
// Observability: the `mistral_pod_<i>_*` metric trio per level-1 controller,
// `mistral_pod_global_*` for the escalation controller, and `pod_decision`
// journal rows (pod -1, level "global", for the escalation controller).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/pod_controller.h"
#include "core/strategies.h"

namespace mistral::core {

class two_level_controller final : public strategy {
public:
    // `groups`: non-empty, pairwise disjoint host-index groups, one per
    // level-1 controller. They need not cover every host.
    two_level_controller(const cluster::cluster_model& model,
                         const cost::cost_table& costs,
                         std::vector<std::vector<std::size_t>> groups,
                         const controller_builder& builder = {});

    [[nodiscard]] std::string name() const override { return "Mistral-2L"; }
    outcome decide(const decision_input& in) override;

    [[nodiscard]] std::size_t level1_count() const { return level1_.size(); }
    [[nodiscard]] const mistral_controller& level1(std::size_t i) const {
        return *level1_[i].controller;
    }

private:
    struct level1_controller {
        std::vector<std::size_t> hosts;  // sorted
        pod_metrics metrics;
        std::unique_ptr<mistral_controller> controller;
    };

    const cluster::cluster_model* model_;
    obs::sink* sink_;
    std::vector<level1_controller> level1_;
    std::unique_ptr<mistral_controller> escalation_;
    pod_metrics escalation_metrics_;
};

}  // namespace mistral::core
