// Two-level hierarchical control (Sections II-C, V-E).
//
// Three applications on six hosts, managed by core::two_level_controller:
// two first-level controllers (one per 3-host group; band 0, CPU tuning +
// intra-group migration only) under one second-level controller (band
// 8 req/s, full action set). The example contrasts the levels' behaviour:
// the first level fires nearly every interval with quick small refinements,
// the second level fires rarely with cluster-wide reconfigurations.
// Per-level statistics come from the controllers' obs metrics
// (mistral_pod_<group>_* and mistral_pod_global_*), read through a
// metrics-only sink.
//
// Build & run:  ./build/examples/hierarchy
#include <iostream>

#include "common/table_printer.h"
#include "core/experiment.h"
#include "core/two_level.h"
#include "cost/table.h"
#include "obs/journal.h"

using namespace mistral;

int main() {
    auto scn = core::make_rubis_scenario({.host_count = 6, .app_count = 3});
    std::cout << "Scenario: 3 applications / 15 VMs / 6 hosts; level-1 pods "
                 "{0,1,2} and {3,4,5}; level-2 over the whole cluster\n\n";

    obs::metrics_registry registry;
    // Journal off, metrics on: decisions stay byte-identical to the
    // uninstrumented run while the controllers still register their metrics.
    obs::null_sink sink(&registry);

    core::controller_builder builder;
    builder.sink(&sink);
    core::two_level_controller controller(scn.model,
                                          cost::cost_table::paper_defaults(),
                                          {{0, 1, 2}, {3, 4, 5}}, builder);
    const auto r = core::run_scenario(scn, controller);

    // Registration is idempotent: re-registering a name hands back the live
    // handle, which is how readers get at recorded values.
    const auto level1_searches = [&](std::size_t pod) {
        return registry.register_histogram(
            "mistral_pod_" + std::to_string(pod) + "_search_seconds",
            {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0});
    };
    const auto h0 = level1_searches(0);
    const auto h1 = level1_searches(1);
    const auto hg = registry.register_histogram(
        "mistral_pod_global_search_seconds",
        {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0});
    const std::int64_t l1_count = h0.count() + h1.count();
    const double l1_mean =
        l1_count > 0 ? (h0.sum() + h1.sum()) / static_cast<double>(l1_count) : 0.0;
    const double l2_mean =
        hg.count() > 0 ? hg.sum() / static_cast<double>(hg.count()) : 0.0;

    table_printer t({"metric", "value"});
    t.add_row({"cumulative utility ($)",
               table_printer::fmt(r.cumulative_utility, 1)});
    t.add_row({"mean power (W)", table_printer::fmt(r.mean_power, 1)});
    t.add_row({"controller invocations", std::to_string(r.invocations)});
    t.add_row({"actions executed", std::to_string(r.total_actions)});
    t.add_row({"level-1 searches", std::to_string(l1_count)});
    t.add_row({"level-1 mean search (s)", table_printer::fmt(l1_mean, 2)});
    t.add_row({"level-2 searches", std::to_string(hg.count())});
    t.add_row({"level-2 mean search (s)", table_printer::fmt(l2_mean, 2)});
    t.print(std::cout);

    std::cout << "\nThe division of labour (Section II-C): the first level is\n"
                 "invoked constantly but restricted to quick, local moves; the\n"
                 "second level wakes only on large workload shifts and wields\n"
                 "replication and host power-cycling over the whole cluster.\n"
                 "Scaling to racks means more level-1 pods, not a bigger\n"
                 "central search — see examples/pod_cluster.cpp for the\n"
                 "sharded coordinator that takes this to hundreds of hosts.\n";
    return 0;
}
