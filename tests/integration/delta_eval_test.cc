// Replay determinism of the cached evaluation engine.
//
// The per-app sub-solve cache persists across decisions, so its LRU state is
// part of what a run carries forward. The same seed, workload, and fault
// schedule — host crashes included — must still produce a byte-identical
// decision-and-measurement trace on every replay. (That cached values equal
// whole solves is checked per evaluation by
// EvaluatorTest.DeltaEvaluationIsBitIdenticalToFull.)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "apps/rubis.h"
#include "common/rng.h"
#include "core/controller.h"
#include "sim/testbed.h"

namespace mistral {
namespace {

cluster::cluster_model make_model(std::size_t hosts, std::size_t apps) {
    std::vector<apps::application_spec> specs;
    for (std::size_t a = 0; a < apps; ++a) {
        specs.push_back(apps::rubis_browsing("R" + std::to_string(a)));
    }
    return cluster::cluster_model(cluster::uniform_hosts(hosts), std::move(specs));
}

cluster::configuration base_config(const cluster::cluster_model& model) {
    cluster::configuration c(model.vm_count(), model.host_count());
    for (std::size_t h = 0; h < model.host_count(); ++h) {
        c.set_host_power(host_id{static_cast<std::int32_t>(h)}, true);
    }
    const std::size_t per_app =
        std::max<std::size_t>(1, model.host_count() / model.app_count());
    for (std::size_t a = 0; a < model.app_count(); ++a) {
        const app_id app{static_cast<std::int32_t>(a)};
        for (std::size_t t = 0; t < model.app(app).tier_count(); ++t) {
            const std::size_t h = (a * per_app + t % per_app) % model.host_count();
            c.deploy(model.tier_vms(app, t)[0],
                     host_id{static_cast<std::int32_t>(h)}, 0.4);
        }
    }
    return c;
}

// One line per interval capturing everything the cache could perturb:
// decision flags, exact action strings, the bit pattern of the expected
// utility, and the configuration hash after actuation and faults.
std::string run_trace(const cluster::cluster_model& model, std::uint64_t seed) {
    sim::testbed_options tb_opts;
    tb_opts.seed = seed;
    auto& f = tb_opts.faults;
    for (std::size_t k = 0; k < sim::action_kind_count; ++k) {
        f.failure_probability[k] = 0.25;
        f.straggler_probability[k] = 0.25;
    }
    f.host_crashes.push_back({.at = 400.0, .host = 2, .recover_after = 300.0});
    sim::testbed tb(model, base_config(model), tb_opts);

    core::controller_options opts;
    opts.search.max_expansions = 80;
    core::mistral_controller ctl(model, cost::cost_table::paper_defaults(), opts);

    rng workload(seed ^ 0x5a5aULL);
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
        last_utility = obs.power;
    }
    return trace.str();
}

// Replays of the same run are bit-identical — the app cache's LRU state is a
// deterministic function of the action sequence.
TEST(DeltaEval, DeltaOnReplaysBitIdentically) {
    const auto model = make_model(4, 2);
    for (const std::uint64_t seed : {5ull, 9ull}) {
        const auto trace = run_trace(model, seed);
        EXPECT_EQ(trace, run_trace(model, seed)) << "seed " << seed;
        // The schedule must actually exercise faults (host crash included)
        // for the comparison to mean anything.
        EXPECT_NE(trace.find("down=1"), std::string::npos) << "seed " << seed;
    }
}

}  // namespace
}  // namespace mistral
