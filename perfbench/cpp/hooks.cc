#include "hooks.h"

#include <cmath>
#include <exception>

namespace perfbench {

namespace mc = mistral::cluster;

void stamping_meter::begin() {
    charged_ = 0;
    tl_->push_back({.kind = mark_kind::search_begin, .t = bench_clock::now()});
}

void stamping_sink::record(const mistral::obs::event& e) {
    const auto t = bench_clock::now();
    mark m{.t = t};
    if (e.type == "search") {
        m.kind = mark_kind::search_end;
        const auto integer = [&](const char* key) {
            const auto* f = e.find(key);
            return f != nullptr ? f->integer : std::int64_t{0};
        };
        m.expansions = integer("expansions");
        m.generated = integer("generated");
        m.plan_actions = integer("plan_actions");
        const auto* pruned = e.find("pruned");
        m.pruned = pruned != nullptr && pruned->boolean;
        for (const char* key : {"expected_utility", "ideal_utility"}) {
            const auto* f = e.find(key);
            if (f != nullptr && !std::isfinite(f->num)) ++non_finite_;
        }
    } else if (e.type == "decision") {
        m.kind = mark_kind::decision;
    } else if (e.type == "pod_budget") {
        m.kind = mark_kind::pod_budget;
    } else if (e.type == "restart") {
        m.kind = mark_kind::restart;
    } else if (e.type == "checkpoint") {
        m.kind = mark_kind::checkpoint;
    } else {
        return;
    }
    tl_->push_back(m);
}

mistral::core::strategy::outcome timed_strategy::decide(
    const mistral::core::decision_input& in) {
    if (tl_ != nullptr) {
        tl_->push_back({.kind = mark_kind::step_begin, .t = bench_clock::now()});
    }
    outcome out;
    std::string failure;
    const auto t0 = bench_clock::now();
    try {
        out = inner_->decide(in);
    } catch (const std::exception& e) {
        out = outcome{};
        failure = std::string("decide threw: ") + e.what();
    }
    const auto t1 = bench_clock::now();
    if (tl_ != nullptr) tl_->push_back({.kind = mark_kind::step_end, .t = t1});

    decision_record r;
    r.now = in.now;
    r.entered = t0;
    r.wall_ms = ms_between(t0, t1);
    r.invoked = out.invoked;
    r.rates = in.rates;
    r.current = in.current;
    r.actions = out.actions;
    r.stats = out.stats;

    if (failure.empty()) {
        mc::configuration probe = in.current;
        for (const auto& a : out.actions) {
            std::string why;
            if (!mc::applicable(*model_, probe, a, &why)) {
                failure = "plan action does not apply: " + mc::to_string(*model_, a) +
                          " (" + why + ")";
                break;
            }
            probe = mc::apply(*model_, probe, a);
        }
        // A search plan must land on a candidate (the search accepts only
        // candidate terminals). From a structurally invalid configuration (a
        // host crash killed replicas) the controller emits a structural
        // repair instead, whose contract (core/planner.h plan_repair) is to
        // restore structural validity; it may leave a host CPU-overbooked
        // for the next search to resolve.
        std::string why;
        if (failure.empty() && !out.actions.empty()) {
            if (mc::structurally_valid(*model_, in.current)) {
                if (!mc::is_candidate(*model_, probe, &why)) {
                    failure = "plan lands on a non-candidate configuration (" + why + ")";
                }
            } else if (!mc::structurally_valid(*model_, probe, &why)) {
                failure = "repair leaves the configuration structurally invalid (" + why + ")";
            }
        }
    }
    if (failure.empty() &&
        !(std::isfinite(out.decision_delay) && std::isfinite(out.decision_power_cost))) {
        failure = "non-finite decision self-cost";
    }
    r.failed = !failure.empty();
    r.failure = std::move(failure);
    records_.push_back(std::move(r));
    records_.back().overhead_ms = ms_between(t1, bench_clock::now());
    overhead_s_ += records_.back().overhead_ms / 1000.0;
    return out;
}

}  // namespace perfbench
