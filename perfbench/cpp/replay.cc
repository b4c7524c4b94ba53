#include "replay.h"

#include <algorithm>
#include <optional>

#include "cluster/view.h"
#include "core/coordinator.h"
#include "core/evaluator.h"
#include "core/perf_pwr.h"
#include "core/snapshot.h"
#include "predict/arma.h"
#include "stats.h"

namespace perfbench {

namespace mc = mistral::cluster;
namespace core = mistral::core;

namespace {

// Repeat count for calls too short to time one by one (cluster::apply).
constexpr int kApplyBatch = 64;

// One decision's inputs as one controller saw them: the whole cluster for a
// flat controller, a pod's projection for a pod controller.
struct local_input {
    const mc::cluster_model* model = nullptr;
    std::vector<mistral::req_per_sec> rates;
    mc::configuration current;
    std::vector<mc::action> actions;  // the emitted actions inside this lens
};

// The lenses the run's controllers decided through: the identity lens for a
// flat controller, each pod's final view for the coordinator. A record is
// replayed in a pod's lens only if that pod owned its apps at the time
// (contains() holds); brokered moves make the rest unprojectable.
std::vector<mc::cluster_view> lenses_of(const core::scenario& scn,
                                        const system_under_test& sut) {
    std::vector<mc::cluster_view> out;
    if (sut.pods == nullptr) {
        out.emplace_back(scn.model);
        return out;
    }
    for (const auto& pod : sut.pods->inner().pods()) {
        if (!pod->idle()) out.push_back(pod->view());
    }
    return out;
}

std::vector<local_input> project_records(const std::vector<mc::cluster_view>& lenses,
                                         const std::vector<decision_record>& records) {
    std::vector<local_input> out;
    for (const auto& r : records) {
        if (!r.invoked || r.failed) continue;
        for (const auto& lens : lenses) {
            if (!lens.contains(r.current)) continue;
            local_input li;
            li.model = &lens.local();
            li.rates = lens.project_per_app(r.rates);
            li.current = lens.project(r.current);
            for (const auto& a : r.actions) {
                if (auto la = lens.project_action(a)) li.actions.push_back(*la);
            }
            out.push_back(std::move(li));
        }
    }
    return out;
}

template <class F>
double time_ms(F&& f) {
    const auto t0 = bench_clock::now();
    f();
    return ms_between(t0, bench_clock::now());
}

replay_timing summarize(std::vector<double> samples, std::size_t calls) {
    return {.median = median(std::move(samples)), .calls = calls};
}

}  // namespace

replay_results replay_layers(const core::scenario& scn, const system_under_test& sut,
                             const std::vector<decision_record>& records, int passes) {
    replay_results out;
    const auto lenses = lenses_of(scn, sut);
    const auto inputs = project_records(lenses, records);

    std::vector<double> perf_pwr, enumerate, apply, solve;
    for (int p = 0; p < passes; ++p) {
        // A fresh optimizer per lens and pass: its evaluator warms across the
        // decisions of one pass, as the controller's does across its run.
        std::vector<std::pair<const mc::cluster_model*,
                              std::unique_ptr<core::perf_pwr_optimizer>>> optimizers;
        for (const auto& in : inputs) {
            auto it = std::find_if(optimizers.begin(), optimizers.end(),
                                   [&](const auto& o) { return o.first == in.model; });
            if (it == optimizers.end()) {
                optimizers.emplace_back(in.model, std::make_unique<core::perf_pwr_optimizer>(
                                                      *in.model, core::utility_model{}));
                it = std::prev(optimizers.end());
            }
            const auto& opt = *it->second;
            perf_pwr.push_back(time_ms([&] {
                const auto r = opt.optimize(in.rates, &in.current);
                (void)r;
            }));

            std::size_t n = 0;
            enumerate.push_back(1000.0 * time_ms([&] {
                n = mc::enumerate_actions(*in.model, in.current).size();
            }));
            if (n == 0) out.failure = "enumerate_actions found no action";

            mc::configuration probe = in.current;
            for (const auto& a : in.actions) {
                if (!mc::applicable(*in.model, probe, a)) break;
                mc::configuration next = probe;
                const double ms = time_ms([&] {
                    for (int k = 0; k < kApplyBatch; ++k) next = mc::apply(*in.model, probe, a);
                });
                apply.push_back(1e6 * ms / kApplyBatch);
                probe = std::move(next);
            }

            // A cold evaluation: a fresh engine, so every app's LQN sub-solve
            // runs. Only structurally valid configurations are evaluable.
            if (mc::structurally_valid(*in.model, in.current)) {
                core::serial_evaluator eval(*in.model, core::utility_model{});
                eval.begin_decision(in.rates);
                solve.push_back(1000.0 * time_ms([&] {
                    const auto u = eval.evaluate(in.current);
                    (void)u;
                }));
            }
        }
    }
    const auto per_pass = [&](std::size_t n) { return n / static_cast<std::size_t>(passes); };
    out.perf_pwr_optimize_ms = summarize(perf_pwr, per_pass(perf_pwr.size()));
    out.enumerate_us = summarize(enumerate, per_pass(enumerate.size()));
    out.apply_ns = summarize(apply, per_pass(apply.size()));
    out.lqn_solve_us = summarize(solve, per_pass(solve.size()));

    // The stability predictors (and, with lookahead, the rate forecasters)
    // replayed over the measurement histories the run fed them.
    struct history {
        mistral::predict::arma_options options;
        std::vector<mistral::seconds> measured;
    };
    std::vector<history> histories;
    const auto collect = [&](const core::mistral_controller& c) {
        for (const auto& p : c.predictors()) {
            histories.push_back({c.options().arma, p.measurements()});
        }
        for (const auto& p : c.rate_forecasters()) {
            histories.push_back({c.options().lookahead.rate_arma, p.measurements()});
        }
    };
    if (sut.flat != nullptr) collect(sut.flat->controller());
    if (sut.pods != nullptr) {
        for (const auto& pod : sut.pods->inner().pods()) {
            if (!pod->idle()) collect(pod->controller());
        }
    }
    std::vector<double> observe;
    for (int p = 0; p < passes; ++p) {
        for (const auto& h : histories) {
            mistral::predict::stability_predictor pred(h.options);
            for (const auto m : h.measured) {
                observe.push_back(1000.0 * time_ms([&] { pred.observe(m); }));
            }
        }
    }
    out.arma_observe_us = summarize(observe, per_pass(observe.size()));

    if (sut.pods != nullptr && !sut.pods->last_checkpoint().empty()) {
        const std::string& text = sut.pods->last_checkpoint();
        out.checkpoint_bytes = text.size();
        std::vector<double> enc, dec;
        for (int p = 0; p < passes; ++p) {
            std::optional<core::snapshot> snap;
            dec.push_back(time_ms([&] { snap = core::snapshot_from_json(text); }));
            std::string again;
            enc.push_back(time_ms([&] { again = core::to_json(*snap); }));
            if (again != text) out.failure = "snapshot codec does not round-trip the checkpoint";
        }
        out.snapshot_encode_ms = summarize(enc, 1);
        out.snapshot_decode_ms = summarize(dec, 1);
    }
    return out;
}

}  // namespace perfbench
