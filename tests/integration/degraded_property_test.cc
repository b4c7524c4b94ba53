// Randomized degraded-mode invariant harness.
//
// Each episode derives a corrupted telemetry stream from its seed (NaN
// windows, spikes, empty windows layered over a random-walk workload) and
// drives the full controller with a strict divergence guard. Invariants
// checked every step:
//
//  * fail-safe — while the ladder holds (predictor untrusted), the
//    controller never emits an adaptation plan; only fenced structural
//    repairs may act;
//  * bounded greed — on the greedy rung every non-repair plan carries at
//    most one action;
//  * containment — no NaN ever reaches the workload monitor: band centers
//    stay finite no matter what the sensors reported.
//
// Episode count shares the MISTRAL_FAULT_EPISODES CMake knob with the
// action-fault harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "test_fixtures.h"

#ifndef MISTRAL_FAULT_EPISODES
#define MISTRAL_FAULT_EPISODES 25
#endif

namespace mistral {
namespace {

using test_support::make_model;
using test_support::base_config;

constexpr seconds kInterval = 120.0;
constexpr int kSteps = 40;

// Strict guard thresholds so episodes actually reach the hold rung.
core::controller_options episode_options() {
    core::controller_options opts;
    opts.search.max_expansions = 60;
    opts.arma.divergence.slack = 0.2;
    opts.arma.divergence.soft_threshold = 0.5;
    opts.arma.divergence.hard_threshold = 1.0;
    opts.arma.divergence.error_floor = 1.0;
    return opts;
}

TEST(DegradedProperty, LadderNeverPlansWhileUntrustedAcrossEpisodes) {
    const auto model = make_model(4, 2);
    const auto cfg = base_config(model);
    std::int64_t held_total = 0;
    std::int64_t degraded_total = 0;
    for (int episode = 0; episode < MISTRAL_FAULT_EPISODES; ++episode) {
        rng r(0x0de6'0000ULL + static_cast<std::uint64_t>(episode));
        core::mistral_controller ctl(model, cost::cost_table::paper_defaults(),
                                     episode_options());
        std::vector<req_per_sec> level(model.app_count(), 50.0);
        for (int i = 0; i < kSteps; ++i) {
            const seconds t = i * kInterval;
            core::decision_input in{t, level, cfg, 1.0};
            in.samples.reserve(model.app_count());
            for (auto& rate : in.rates) {
                // Random-walk ground truth, then per-app sensor corruption.
                rate = std::clamp(rate + r.uniform(-25.0, 25.0), 5.0, 120.0);
                double samples = rate * kInterval;
                const double roll = r.uniform(0.0, 1.0);
                if (roll < 0.10) {
                    rate = std::numeric_limits<double>::quiet_NaN();
                } else if (roll < 0.25) {
                    rate *= r.uniform(2.0, 10.0);
                } else if (roll < 0.32) {
                    rate = 0.0;
                    samples = 0.0;
                }
                in.samples.push_back(samples);
            }
            // The walk continues from the *true* level, not the corruption.
            for (std::size_t a = 0; a < level.size(); ++a) {
                if (std::isfinite(in.rates[a]) && in.rates[a] > 0.0 &&
                    in.samples[a] > 0.0 && in.rates[a] <= 120.0) {
                    level[a] = in.rates[a];
                }
            }
            const auto d = ctl.step(in);

            if (d.mode == core::control_mode::hold && !d.repair) {
                ASSERT_FALSE(d.invoked)
                    << "episode " << episode << " step " << i
                    << ": plan emitted while holding";
                ASSERT_TRUE(d.actions.empty());
            }
            if (d.mode == core::control_mode::greedy && !d.repair) {
                ASSERT_LE(d.actions.size(), 1u)
                    << "episode " << episode << " step " << i;
            }
            for (std::size_t a = 0; a < model.app_count(); ++a) {
                ASSERT_TRUE(std::isfinite(ctl.monitor().band_of(a).center))
                    << "episode " << episode << " step " << i;
            }
        }
        held_total += ctl.degraded().held_triggers;
        degraded_total += ctl.degraded().degraded_windows;
    }
    // The invariants above are vacuous unless the episodes actually reached
    // the rungs they guard.
    EXPECT_GT(degraded_total, 0);
    EXPECT_GT(held_total, 0);
}

}  // namespace
}  // namespace mistral
