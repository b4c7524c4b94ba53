// Spans of the traced run, derived from the stamped timeline.
//
// A controller step (one decide() of the timing wrapper) is the root span.
// For a flat controller its children tile it: pre_search (step start to the
// first search_meter::begin), one search span per find() (begin to the
// search's "search" journal event), post_search (last search event to step
// return); lookahead glue between searches is left unattributed and
// reported. For the pod coordinator the children are: restart (warm restart
// before deciding), coordinator_pre (ownership reconciliation and budget
// redistribution, up to the "pod_budget" event), one pod_step per pod
// (sequential in the traced run, each ending at its controller's "decision"
// event) and coordinator_post (pod bookkeeping, migration broker and
// checkpointing). Pod controllers keep their meters internal, so a pod's
// search span starts at its pod step's start.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "hooks.h"

namespace perfbench {

inline constexpr std::size_t no_parent = std::numeric_limits<std::size_t>::max();

struct span {
    std::size_t id = 0;
    std::size_t parent = no_parent;
    std::string name;
    double start_ms = 0.0;  // from the first mark of the run
    double end_ms = 0.0;
};

// Total host time per span name over the run, for the attribution table.
// Rows marked nested break a tiling row down further and are not summed.
struct attribution_row {
    std::string name;
    double total_ms = 0.0;
    bool nested = false;
};

struct trace_summary {
    std::vector<span> spans;
    double step_total_ms = 0.0;
    std::vector<attribution_row> attribution;  // tiles step_total_ms
    double unattributed_ms = 0.0;

    std::vector<double> pre_search_ms;   // per controller step with a search
    std::vector<double> post_search_ms;  // per controller step with a search
    std::vector<double> search_ms;       // per search
    std::size_t searching_steps = 0;     // controller steps with ≥ 1 search
    std::size_t searches = 0;
    std::int64_t expansions = 0;
    std::int64_t generated = 0;
    std::size_t stays = 0;   // searches returning an empty plan
    std::size_t pruned = 0;  // searches where self-aware pruning engaged

    std::vector<double> pod_step_ms;        // per pod step
    std::vector<double> pod_imbalance;      // per decide: max / mean pod step
    std::vector<double> coord_overhead_ms;  // per decide: decide − Σ pod steps
    std::vector<double> restart_ms;         // per warm restart
};

[[nodiscard]] trace_summary summarize_trace(const timeline& tl, bool pods);

}  // namespace perfbench
