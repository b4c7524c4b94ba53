// Layer replay: after the untraced run, time single layer functions on the
// inputs that run recorded — each invoked decision's rates and configuration,
// the actions it emitted, the predictors' measurement histories and the last
// checkpoint — outside the closed loop, so each layer's cost per call is
// measured without the layers around it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "hooks.h"
#include "workloads.h"

namespace perfbench {

// Median host time per call of one layer function, with the call count.
struct replay_timing {
    double median = 0.0;
    std::size_t calls = 0;
};

struct replay_results {
    replay_timing perf_pwr_optimize_ms;
    replay_timing enumerate_us;
    replay_timing apply_ns;
    replay_timing lqn_solve_us;  // cold evaluate of a recorded configuration
    replay_timing arma_observe_us;
    replay_timing snapshot_encode_ms;
    replay_timing snapshot_decode_ms;
    std::size_t checkpoint_bytes = 0;
    // Empty when every replayed output matched the run (the snapshot codec
    // must round-trip the checkpoint byte for byte).
    std::string failure;
};

// Replays each layer for `passes` passes over the inputs recorded by a run of
// `scn`.
[[nodiscard]] replay_results replay_layers(const mistral::core::scenario& scn,
                                           const system_under_test& sut,
                                           const std::vector<decision_record>& records,
                                           int passes);

}  // namespace perfbench
