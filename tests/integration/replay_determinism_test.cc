// Replay determinism under fault injection.
//
// The same seed, workload and fault schedule — host crashes included — must
// produce a bit-identical decision-and-measurement trace on every replay.
// Faults are drawn from their own forked RNG stream keyed only by the action
// sequence, and the per-app sub-solve cache, whose LRU state persists across
// decisions, is a deterministic function of that sequence, so nothing outside
// the seed may leak into a decision. (That cached values equal whole solves
// is checked per evaluation by EvaluatorTest.DeltaEvaluationIsBitIdenticalToFull.)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "sim/testbed.h"
#include "test_fixtures.h"

namespace mistral {
namespace {

using test_support::base_config;
using test_support::make_model;

// One replayed run: the cluster, the seeds, the per-kind action failure and
// straggler probability, and the salt of the workload stream.
struct replay_case {
    std::size_t hosts;
    std::size_t apps;
    std::vector<std::uint64_t> seeds;
    double fault_probability;
    std::uint64_t workload_salt;
};

// One line per interval capturing everything a nondeterminism could
// perturb: decision flags, the exact action strings, the bit pattern of the
// expected utility, the configuration hash after actuation and faults, and
// the fault notices; then the controller's reconciliation totals.
std::string run_trace(const cluster::cluster_model& model, const replay_case& rc,
                      std::uint64_t seed) {
    sim::testbed_options tb_opts;
    tb_opts.seed = seed;
    auto& f = tb_opts.faults;
    for (std::size_t k = 0; k < sim::action_kind_count; ++k) {
        f.failure_probability[k] = rc.fault_probability;
        f.straggler_probability[k] = rc.fault_probability;
    }
    f.host_crashes.push_back({.at = 400.0, .host = 2, .recover_after = 300.0});
    sim::testbed tb(model, base_config(model), tb_opts);

    core::controller_options opts;
    opts.search.max_expansions = 80;
    core::mistral_controller ctl(model, cost::cost_table::paper_defaults(), opts);

    rng workload(seed ^ rc.workload_salt);
    std::ostringstream trace;
    trace.precision(17);
    std::vector<cluster::action> pending_failed;
    std::vector<std::int32_t> pending_down, pending_up;
    dollars last_utility = 0.0;

    for (int i = 0; i < 10; ++i) {
        const seconds t = i * 120.0;
        const std::vector<req_per_sec> rates(model.app_count(),
                                             workload.uniform(20.0, 70.0));
        if (!tb.busy()) {
            core::decision_input din{t, rates, tb.config(), last_utility};
            din.failed = pending_failed;
            din.hosts_failed = pending_down;
            din.hosts_recovered = pending_up;
            pending_failed.clear();
            pending_down.clear();
            pending_up.clear();
            const auto d = ctl.step(din);
            trace << i << " invoked=" << d.invoked << " repair=" << d.repair
                  << " reconciled=" << d.reconciled;
            for (const auto& a : d.actions) trace << " [" << to_string(model, a) << "]";
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(d.expected_utility));
            std::memcpy(&bits, &d.expected_utility, sizeof(bits));
            trace << " eu=" << bits << "\n";
            if (!d.actions.empty()) tb.submit(d.actions, d.stats.duration);
        } else {
            trace << i << " busy\n";
        }

        const auto obs = tb.advance(120.0, rates);
        pending_failed.insert(pending_failed.end(), obs.failed.begin(),
                              obs.failed.end());
        pending_down.insert(pending_down.end(), obs.hosts_failed.begin(),
                            obs.hosts_failed.end());
        pending_up.insert(pending_up.end(), obs.hosts_recovered.begin(),
                          obs.hosts_recovered.end());
        trace << "  hash=" << tb.config().hash()
              << " failed=" << obs.failed.size()
              << " down=" << obs.hosts_failed.size()
              << " up=" << obs.hosts_recovered.size() << " power=" << obs.power;
        for (const double rt : obs.response_time) trace << " rt=" << rt;
        trace << "\n";
        last_utility = obs.power;  // any deterministic feedback value works
    }
    trace << "failed_total=" << ctl.reconciliation().failed_actions
          << " replans=" << ctl.reconciliation().fault_replans
          << " repairs=" << ctl.reconciliation().repairs << "\n";
    return trace.str();
}

// Replays `rc` twice per seed and requires bit-identical traces. The
// schedule must actually exercise faults for the comparison to mean
// anything: the host crash fires and some action fails.
void expect_replays_bit_identically(const replay_case& rc) {
    const auto model = make_model(rc.hosts, rc.apps);
    for (const std::uint64_t seed : rc.seeds) {
        const auto trace = run_trace(model, rc, seed);
        EXPECT_EQ(trace, run_trace(model, rc, seed)) << "seed " << seed;
        EXPECT_NE(trace.find(" down=1 "), std::string::npos) << "seed " << seed;
        EXPECT_EQ(trace.find("failed_total=0 "), std::string::npos)
            << "seed " << seed;
    }
}

// Replays of the same run are bit-identical on a 4-host/2-app cluster at
// 25 % action faults — the app cache's LRU state is a deterministic function
// of the action sequence.
TEST(DeltaEval, DeltaOnReplaysBitIdentically) {
    expect_replays_bit_identically({4, 2, {5, 9}, 0.25, 0x5a5aULL});
}

// The same run repeated with identical settings replays bit-identically on a
// 3-host/1-app cluster at 30 % action faults — the determinism the
// resumable harness and the episode seeds rely on.
TEST(FaultDeterminism, SameSeedReplaysBitIdentically) {
    expect_replays_bit_identically({3, 1, {11, 21}, 0.3, 0x777ULL});
}

}  // namespace
}  // namespace mistral
