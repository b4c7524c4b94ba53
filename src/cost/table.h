// Adaptation cost tables.
//
// Section III-C: "Costs of these adaptation actions are measured
// experimentally offline for different workloads and configurations and are
// stored in tables used at runtime. ... These deltas along with the action
// duration are averaged across all random configurations, and their values
// are encoded in a cost table indexed by the workload. When Mistral requires
// an estimate of adaptation costs at runtime, it measures the current
// workload W and looks up the cost table entry with the closest workload."
//
// Table keys are (action kind, tier index) because Fig. 7 measures migration
// and replication costs per tier (Apache/Tomcat/MySQL behave differently);
// host power-cycling and CPU tuning ignore the tier dimension.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "cluster/action.h"
#include "common/units.h"

namespace mistral::cost {

struct cost_entry {
    seconds duration = 0.0;
    // Response-time increase for the application being adapted and for
    // applications co-located with it, while the action runs.
    seconds delta_rt_target = 0.0;
    seconds delta_rt_colocated = 0.0;
    // Extra power drawn on the affected hosts while the action runs.
    watts delta_power = 0.0;
};

class cost_table {
public:
    // Records one offline measurement at `workload` (req/s of the adapted
    // application). Multiple samples at the same key are averaged on lookup.
    void add_measurement(cluster::action_kind kind, std::size_t tier,
                         req_per_sec workload, const cost_entry& entry);

    [[nodiscard]] bool has(cluster::action_kind kind, std::size_t tier) const;

    // The paper's runtime rule: pick the measured workload closest to
    // `workload`, return the mean of its samples. A tier without samples
    // falls back to tier 0, then to the lowest tier sampled for `kind`;
    // throws invariant_error when `kind` has no samples at all.
    [[nodiscard]] cost_entry lookup(cluster::action_kind kind, std::size_t tier,
                                    req_per_sec workload) const;

    // Convenience: cost of a concrete action given the per-app workload
    // vector. Resolves the action's kind, tier, and the workload of the
    // application it touches (host power actions use the total workload).
    [[nodiscard]] cost_entry lookup(const cluster::cluster_model& model,
                                    const cluster::action& a,
                                    const std::vector<req_per_sec>& rates) const;

    // All measured workload keys for (kind, tier), sorted (for reporting).
    [[nodiscard]] std::vector<req_per_sec> workloads(cluster::action_kind kind,
                                                     std::size_t tier) const;

    // Invokes `fn(kind, tier, workload, entry)` for every recorded sample in
    // deterministic (kind, tier, insertion) order — the persistence hook.
    void for_each_sample(
        const std::function<void(cluster::action_kind, std::size_t, req_per_sec,
                                 const cost_entry&)>& fn) const;

    // A table pre-populated with the paper's published measurements: Fig. 7's
    // migration/replication costs over 100–800 concurrent sessions and the
    // Section V-B host power-cycle constants. Used as a fallback and by unit
    // tests; benches measure their own tables against the testbed simulator.
    static cost_table paper_defaults();

private:
    using key = std::pair<cluster::action_kind, std::size_t>;
    // samples[key]: (workload, entry) pairs, unsorted.
    std::map<key, std::vector<std::pair<req_per_sec, cost_entry>>> samples_;
};

}  // namespace mistral::cost
