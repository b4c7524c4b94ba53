#include "workloads.h"

#include "apps/rubis.h"
#include "core/builder.h"
#include "core/coordinator.h"
#include "core/pods.h"
#include "hooks.h"
#include "sim/cost_campaign.h"
#include "workload/generators.h"

namespace perfbench {

namespace core = mistral::core;
namespace wl = mistral::wl;
using mistral::seconds;

namespace {

// Seed 1 reproduces the testbed of the paper-figure benches (testbed seed 42).
std::uint64_t testbed_seed(std::uint64_t seed) { return 41 + seed; }

// Scenario seeds of one run: seed, seed + stride, seed + 2·stride, ... The
// stride keeps the scenarios of runs with nearby seeds disjoint.
constexpr std::uint64_t kScenarioSeedStride = 1000003;

// The samples of `tr` inside [from, to].
wl::trace sliced(const wl::trace& tr, seconds from, seconds to) {
    std::vector<wl::trace_sample> kept;
    for (const auto& s : tr.samples()) {
        if (s.time >= from - 1e-9 && s.time <= to + 1e-9) kept.push_back(s);
    }
    return wl::trace(tr.name(), std::move(kept));
}

// Replanning every interval makes a whole day of the 8-host cluster cost
// seconds of host time, so that workload splits the day into thirds:
// scenario i runs third i mod 3, and every run covers each third equally
// often, under different seeds.
std::pair<double, double> day_third(std::size_t i) {
    const double j = static_cast<double>(i % 3);
    return {j / 3.0, (j + 1.0) / 3.0};
}

// A flat Mistral controller (Fig. 2) over the whole cluster.
system_under_test flat_system(const core::scenario& scn,
                              const mistral::cost::cost_table& costs,
                              core::controller_options opts, mistral::obs::sink* sink,
                              std::unique_ptr<core::search_meter> meter) {
    opts.sink = sink;
    auto s = std::make_unique<core::mistral_strategy>(scn.model, costs, opts,
                                                      std::move(meter));
    system_under_test out;
    out.flat = s.get();
    out.strategy = std::move(s);
    return out;
}

// paper_day_4x2 — Fig. 9's scenario: 4 hosts, 2 RUBiS apps on the World-Cup
// and HP traces from 15:00 to 21:30, the flat controller with the paper's
// 8 req/s band. Most steps stay inside the band and skip the search, so the
// per-step costs (telemetry validation, ARMA, testbed advance) and the fixed
// cost of a small search weigh most here.
class paper_day final : public workload {
public:
    [[nodiscard]] std::string name() const override { return "paper_day_4x2"; }
    [[nodiscard]] std::size_t scenarios_per_run() const override { return 18; }
    [[nodiscard]] double pass_seconds() const override { return 9.0; }
    [[nodiscard]] system_under_test make_system(
        const core::scenario& scn, mistral::obs::sink* sink,
        std::unique_ptr<core::search_meter> meter) const override {
        return flat_system(scn, costs(), {}, sink, std::move(meter));
    }

protected:
    [[nodiscard]] std::vector<wl::trace> make_traces(std::uint64_t seed) const override {
        auto all = wl::paper_workloads(seed);
        return {all[0], all[1]};
    }
    [[nodiscard]] core::scenario_options scenario_options(
        std::uint64_t seed) const override {
        core::scenario_options o;
        o.host_count = 4;
        o.app_count = 2;
        o.seed = seed;
        o.testbed.seed = testbed_seed(seed);
        return o;
    }
};

// replan_8x4 — the 8-host/4-app cell at band 0 (the paper's first-level
// setting): every interval re-plans, so the search, cluster legality/apply,
// the evaluator and the LQN do nearly all the work.
class replan final : public workload {
public:
    [[nodiscard]] std::string name() const override { return "replan_8x4"; }
    [[nodiscard]] std::size_t scenarios_per_run() const override { return 18; }
    [[nodiscard]] double pass_seconds() const override { return 12.0; }
    [[nodiscard]] system_under_test make_system(
        const core::scenario& scn, mistral::obs::sink* sink,
        std::unique_ptr<core::search_meter> meter) const override {
        core::controller_options opts;
        opts.band_width = 0.0;
        return flat_system(scn, costs(), opts, sink, std::move(meter));
    }

protected:
    [[nodiscard]] std::pair<double, double> window(std::size_t i) const override {
        return day_third(i);
    }
    [[nodiscard]] std::vector<wl::trace> make_traces(std::uint64_t seed) const override {
        return wl::paper_workloads(seed);
    }
    [[nodiscard]] core::scenario_options scenario_options(
        std::uint64_t seed) const override {
        core::scenario_options o;
        o.host_count = 8;
        o.app_count = 4;
        o.seed = seed;
        o.testbed.seed = testbed_seed(seed);
        return o;
    }
};

// pods_64x16 — 64 hosts, 16 apps under a global coordinator with 4 uniform
// pods of 16 hosts stepping on 4 threads, a cluster power budget (so the
// budget broker redistributes every interval), periodic checkpoints and one
// warm restart mid-run. The only workload that exercises the coordinator,
// pod parallelism and the snapshot codec.
class pods final : public workload {
public:
    static constexpr std::size_t kPods = 4;

    [[nodiscard]] std::string name() const override { return "pods_64x16"; }
    [[nodiscard]] std::size_t scenarios_per_run() const override { return 3; }
    [[nodiscard]] double pass_seconds() const override { return 15.0; }
    [[nodiscard]] std::size_t threads() const override { return kPods; }
    [[nodiscard]] system_under_test make_system(
        const core::scenario& scn, mistral::obs::sink* sink,
        std::unique_ptr<core::search_meter> /*meter*/) const override {
        system_under_test out;
        out.gate = std::make_unique<core::gate_sink>(sink);
        const auto& model = scn.model;
        const auto& costs = this->costs();
        core::gate_sink* gate = out.gate.get();
        auto factory = [&model, &costs, gate] {
            core::controller_builder builder;
            builder.sink(gate);
            core::coordinator_options copts;
            copts.parallel_pods = true;
            copts.power_budget = kPowerBudget;
            return std::make_unique<core::global_coordinator>(
                model, costs, core::uniform_partition(model, kPods), builder, copts);
        };
        core::restart_options ropts;
        ropts.checkpoint_every = 8;
        const auto& tr = scn.traces.front();
        ropts.restart_at = {tr.start_time() + 0.5 * (tr.end_time() - tr.start_time())};
        auto s = std::make_unique<core::restartable_coordinator>(factory, ropts, gate);
        out.pods = s.get();
        out.strategy = std::move(s);
        return out;
    }

protected:
    // Each pod's four apps get their own draw of the paper's four trace
    // shapes, so pods carry different load.
    [[nodiscard]] std::vector<wl::trace> make_traces(std::uint64_t seed) const override {
        std::vector<wl::trace> out;
        for (std::size_t p = 0; p < kPods; ++p) {
            for (auto& t : wl::paper_workloads(seed + 1000 * p)) out.push_back(std::move(t));
        }
        return out;
    }
    [[nodiscard]] core::scenario_options scenario_options(
        std::uint64_t seed) const override {
        core::scenario_options o;
        o.host_count = 16 * kPods;
        o.app_count = 4 * kPods;
        o.seed = seed;
        o.testbed.seed = testbed_seed(seed);
        return o;
    }

private:
    static constexpr mistral::watts kPowerBudget = 4000.0;
};

// crowd_faults_k3 — the flash-crowd World-Cup scenario the lookahead planner
// is evaluated on, planned with K=3 lookahead, under testbed faults (20 %
// aborts, 20 % stragglers, one host crash). Lookahead adds forecast peak and
// tail searches; aborts force reconciliation replans and structural repairs.
class crowd_faults final : public workload {
public:
    [[nodiscard]] std::string name() const override { return "crowd_faults_k3"; }
    [[nodiscard]] std::size_t scenarios_per_run() const override { return 60; }
    [[nodiscard]] double pass_seconds() const override { return 27.0; }
    [[nodiscard]] system_under_test make_system(
        const core::scenario& scn, mistral::obs::sink* sink,
        std::unique_ptr<core::search_meter> meter) const override {
        core::controller_options opts;
        opts.lookahead.enabled = true;
        opts.lookahead.horizon = 3;
        return flat_system(scn, costs(), opts, sink, std::move(meter));
    }

protected:
    // The lookahead benches run this scenario on the paper's default table.
    // The measured table has no add_replica entry for the web tier (the
    // campaign skips fixed-size tiers), yet after a host crash the search
    // prices re-adding a web replica, and the lookup throws.
    [[nodiscard]] bool measured_costs() const override { return false; }
    // Seed 1 is the published flash-crowd scenario (generator seed 5).
    [[nodiscard]] std::vector<wl::trace> make_traces(std::uint64_t seed) const override {
        wl::generator_options gen;
        gen.duration = 2.0 * 3600.0;  // 60 monitoring intervals
        gen.seed = seed + 4;
        gen.noise = 0.02;
        auto wc = wl::world_cup_trace(gen, 0).scaled_to_range(10.0, 80.0);
        return {wc.renamed("wc"),
                wl::flash_crowd_trace("crowd", 15.0, 95.0, 2400.0, 1200.0, 1800.0, gen)};
    }
    [[nodiscard]] core::scenario_options scenario_options(
        std::uint64_t seed) const override {
        core::scenario_options o;
        o.host_count = 4;
        o.app_count = 2;
        o.seed = seed;
        o.testbed.seed = testbed_seed(seed);
        o.testbed.faults = mistral::sim::fault_options::uniform(0.2, 0.2);
        o.testbed.faults.host_crashes.push_back(
            {.at = 1800.0, .host = 3, .recover_after = 1200.0});
        return o;
    }
};

}  // namespace

void workload::prepare(std::uint64_t seed, std::size_t max_intervals,
                       setup_timing& timing) {
    auto t0 = bench_clock::now();
    if (measured_costs()) {
        mistral::sim::campaign_options copts;
        copts.trials = 3;  // the figure benches' measured table
        costs_ = std::make_unique<mistral::cost::cost_table>(mistral::sim::run_cost_campaign(
            mistral::apps::rubis_browsing("campaign"), copts));
    } else {
        costs_ = std::make_unique<mistral::cost::cost_table>(
            mistral::cost::cost_table::paper_defaults());
    }
    auto t1 = bench_clock::now();
    timing.campaign_ms = ms_between(t0, t1);

    timing.trace_gen_ms = 0.0;
    timing.scenario_ms = 0.0;
    scenarios_.clear();
    for (std::size_t i = 0; i < scenarios_per_run(); ++i) {
        const std::uint64_t scenario_seed = seed + i * kScenarioSeedStride;
        t0 = bench_clock::now();
        auto traces = make_traces(scenario_seed);
        const auto [first, second] = window(i);
        for (auto& tr : traces) {
            const seconds span = tr.end_time() - tr.start_time();
            const seconds from = tr.start_time() + first * span;
            seconds to = tr.start_time() + second * span;
            if (max_intervals > 0) {
                to = std::min(to, from + static_cast<double>(max_intervals) *
                                             mistral::default_monitoring_interval);
            }
            if (first > 0.0 || second < 1.0 || max_intervals > 0) tr = sliced(tr, from, to);
        }
        t1 = bench_clock::now();
        timing.trace_gen_ms += ms_between(t0, t1);

        t0 = bench_clock::now();
        auto opts = scenario_options(scenario_seed);
        opts.traces = std::move(traces);
        scenarios_.push_back(core::make_rubis_scenario(std::move(opts)));
        t1 = bench_clock::now();
        timing.scenario_ms += ms_between(t0, t1);
    }
}

std::vector<std::string> workload_names() {
    return {"paper_day_4x2", "replan_8x4", "pods_64x16", "crowd_faults_k3"};
}

std::unique_ptr<workload> make_workload(const std::string& name) {
    if (name == "paper_day_4x2") return std::make_unique<paper_day>();
    if (name == "replan_8x4") return std::make_unique<replan>();
    if (name == "pods_64x16") return std::make_unique<pods>();
    if (name == "crowd_faults_k3") return std::make_unique<crowd_faults>();
    return nullptr;
}

}  // namespace perfbench
