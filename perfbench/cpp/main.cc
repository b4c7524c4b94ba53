// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--intervals <n>] [--out <dir>]
//
// Runs the closed control loop (core::run_scenario over the testbed) on the
// scenarios of one workload, checks every decision, and prints a readable
// table followed by one JSON line: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, from
// untraced passes over the run's scenarios, as many as --seconds allows at
// the workload's nominal pass time, host times taken at each decision's and
// step's fastest pass; with --trace 1 they are the per-layer ones, from an
// untraced run, layer replays and a traced run of the first scenario.
// --intervals cuts the traces short (self-test runs). The full result, with run metadata, and the
// traced run's spans are written to --out. Exits non-zero when any check
// fails. See perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "hooks.h"
#include "obs/json.h"
#include "replay.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace core = mistral::core;
namespace obs = mistral::obs;
using namespace perfbench;

namespace {

// ---- metric table ---------------------------------------------------------

struct metric_def {
    const char* name;
    const char* unit;
    const char* better;  // "lower" / "higher"
    const char* kind;    // "host" (this machine's time/memory), "model"
                         // (deterministic simulated quantity) or "count"
};

const std::vector<metric_def>& end_to_end_metrics() {
    static const std::vector<metric_def> defs = {
        {"setup_s", "s", "lower", "host"},
        {"decision_ms_p50", "ms", "lower", "host"},
        {"decision_ms_p90", "ms", "lower", "host"},
        {"intervals_per_s", "1/s", "higher", "host"},
        {"peak_rss_mb", "MB", "lower", "host"},
        {"utility_usd", "USD", "higher", "model"},
        {"sla_violation_pct", "%", "lower", "model"},
        {"mean_power_w", "W", "lower", "model"},
        {"modeled_self_cost_s", "s", "lower", "model"},
    };
    return defs;
}

const std::vector<metric_def>& per_layer_metrics() {
    static const std::vector<metric_def> defs = {
        {"failed_decision_pct", "%", "lower", "count"},
        {"core.controller.step_ms", "ms", "lower", "host"},
        {"core.controller.invoke_ratio", "ratio", "lower", "count"},
        {"core.controller.pre_search_ms", "ms", "lower", "host"},
        {"core.controller.post_search_ms", "ms", "lower", "host"},
        {"core.controller.unattributed_pct", "%", "lower", "host"},
        {"core.search.wall_ms", "ms", "lower", "host"},
        {"core.search.expansions", "count", "lower", "count"},
        {"core.search.generated", "count", "lower", "count"},
        {"core.search.ns_per_generated", "ns", "lower", "host"},
        {"core.search.stay_ratio", "ratio", "lower", "count"},
        {"core.search.pruned_ratio", "ratio", "lower", "count"},
        {"core.search.searches_per_step", "count", "lower", "count"},
        {"core.evaluator.memo_hit_rate", "ratio", "higher", "count"},
        {"core.evaluator.app_hit_rate", "ratio", "higher", "count"},
        {"lqn.solves_per_decision", "count", "lower", "count"},
        {"lqn.solve_us", "us", "lower", "host"},
        {"core.perf_pwr.optimize_ms", "ms", "lower", "host"},
        {"cluster.enumerate_us", "us", "lower", "host"},
        {"cluster.apply_ns", "ns", "lower", "host"},
        {"predict.arma.observe_us", "us", "lower", "host"},
        {"sim.testbed_ms_per_interval", "ms", "lower", "host"},
        {"core.coordinator.pod_step_ms", "ms", "lower", "host"},
        {"core.coordinator.pod_imbalance", "ratio", "lower", "host"},
        {"core.coordinator.overhead_ms", "ms", "lower", "host"},
        {"core.coordinator.broker_moves", "count", "lower", "count"},
        {"core.snapshot.checkpoint_bytes", "bytes", "lower", "count"},
        {"core.snapshot.encode_ms", "ms", "lower", "host"},
        {"core.snapshot.decode_ms", "ms", "lower", "host"},
        {"core.snapshot.restart_ms", "ms", "lower", "host"},
        {"core.lookahead.preprovision_commits", "count", "higher", "count"},
        {"core.controller.fault_replans", "count", "lower", "count"},
        {"core.controller.repairs", "count", "lower", "count"},
        {"sim.aborted_actions", "count", "lower", "count"},
        {"cost.campaign_ms", "ms", "lower", "host"},
        {"workload.trace_gen_ms", "ms", "lower", "host"},
        {"obs.trace_overhead_pct", "%", "lower", "host"},
    };
    return defs;
}

// ---- options --------------------------------------------------------------

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t intervals = 0;  // 0 = whole trace
    std::string out_dir = ".bench_build/results";
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--intervals <n>] [--out <dir>]\nworkloads:";
    for (const auto& n : workload_names()) std::cerr << ' ' << n;
    std::cerr << '\n';
    std::exit(2);
}

options parse(int argc, char** argv) {
    options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage("missing value for " + key);
        const std::string val = argv[++i];
        try {
            if (key == "--workload") {
                o.workload = val;
                have_workload = true;
            } else if (key == "--seed") {
                o.seed = std::stoull(val);
            } else if (key == "--seconds") {
                o.seconds = std::stod(val);
            } else if (key == "--trace") {
                if (val != "0" && val != "1") usage("--trace takes 0 or 1");
                o.trace = val == "1";
            } else if (key == "--intervals") {
                o.intervals = std::stoull(val);
            } else if (key == "--out") {
                o.out_dir = val;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + key + ": " + val);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    return o;
}

// ---- one closed-loop run ---------------------------------------------------

struct loop_result {
    core::run_result run;
    std::vector<decision_record> records;
    bench_clock::time_point began{}, ended{};  // around run_scenario
    double wall_s = 0.0;       // whole run_scenario, bench overhead included
    double overhead_s = 0.0;   // the timing wrapper's checks and bookkeeping
    std::size_t intervals = 0;
    std::unique_ptr<timeline> tl;        // traced runs only
    std::unique_ptr<stamping_sink> sink;  // traced runs only
    system_under_test sut;

    [[nodiscard]] double net_wall_s() const { return wall_s - overhead_s; }

    // The run's wall cut at each decide() call, the wrapper's checks left
    // out: the first piece runs up to the first decision, each later piece
    // from one decision to the next (testbed advance included). The pieces
    // sum to net_wall_s().
    [[nodiscard]] std::vector<double> step_ms() const {
        std::vector<double> out;
        auto from = began;
        double checks_ms = 0.0;
        for (const auto& rec : records) {
            out.push_back(ms_between(from, rec.entered) - checks_ms);
            from = rec.entered;
            checks_ms = rec.overhead_ms;
        }
        out.push_back(ms_between(from, ended) - checks_ms);
        return out;
    }
};

// One closed loop over scenario `i` of the run.
loop_result run_loop(const workload& w, std::size_t i, bool traced) {
    const core::scenario& scn = w.scenario(i);
    loop_result out;
    std::unique_ptr<core::search_meter> meter;
    if (traced) {
        out.tl = std::make_unique<timeline>();
        out.sink = std::make_unique<stamping_sink>(*out.tl);
        meter = std::make_unique<stamping_meter>(*out.tl);
    }
    out.sut = w.make_system(i, out.sink.get(), std::move(meter));
    timed_strategy timed(scn.model, *out.sut.strategy, out.tl.get());
    out.began = bench_clock::now();
    out.run = core::run_scenario(scn, timed);
    out.ended = bench_clock::now();
    out.wall_s = ms_between(out.began, out.ended) / 1000.0;
    out.overhead_s = timed.overhead_s();
    out.records = timed.take_records();
    if (const auto* p = out.run.series.find("power")) out.intervals = p->size();
    return out;
}

// Decision-quality outputs; must repeat bit for bit for one seed.
struct quality {
    double utility_usd = 0.0;
    double sla_violation_pct = 0.0;
    double mean_power_w = 0.0;
    double modeled_self_cost_s = 0.0;
    std::vector<std::vector<mistral::cluster::action>> plans;

    friend bool operator==(const quality&, const quality&) = default;
};

quality quality_of(const loop_result& r) {
    quality q;
    q.utility_usd = r.run.cumulative_utility;
    double v = 0.0;
    for (const double f : r.run.violation_fraction) v += f;
    q.sla_violation_pct =
        100.0 * v / static_cast<double>(std::max<std::size_t>(1, r.run.violation_fraction.size()));
    q.mean_power_w = r.run.mean_power;
    q.modeled_self_cost_s = r.run.search_duration.mean();
    for (const auto& rec : r.records) q.plans.push_back(rec.actions);
    return q;
}

// Deterministic per-layer counts read from the controllers after a run.
struct layer_counts {
    std::int64_t preprovision_commits = 0;
    std::int64_t fault_replans = 0;
    std::int64_t repairs = 0;
    std::int64_t broker_moves = 0;

    friend bool operator==(const layer_counts&, const layer_counts&) = default;
};

layer_counts counts_of(const system_under_test& sut) {
    layer_counts c;
    const auto add = [&](const core::mistral_controller& ctl) {
        c.preprovision_commits += ctl.lookahead().preprovision_commits;
        c.fault_replans += ctl.reconciliation().fault_replans;
        c.repairs += ctl.reconciliation().repairs;
    };
    if (sut.flat != nullptr) add(sut.flat->controller());
    if (sut.pods != nullptr) {
        for (const auto& pod : sut.pods->inner().pods()) {
            if (!pod->idle()) add(pod->controller());
        }
        c.broker_moves = sut.pods->inner().brokered_migrations();
    }
    return c;
}

// ---- set-up ---------------------------------------------------------------

// Prepares `w` for the run and builds (and drops) one controller per
// scenario, timing every piece.
setup_timing prepare_timed(workload& w, const options& opt) {
    setup_timing t;
    w.prepare(opt.seed, opt.intervals, t);
    const auto t0 = bench_clock::now();
    for (std::size_t k = 0; k < w.scenarios_per_run(); ++k) {
        const auto sut = w.make_system(k, nullptr, nullptr);
    }
    t.controller_ms = ms_between(t0, bench_clock::now());
    return t;
}

// Set-up is timed many times, after the first on throwaway copies of the
// workload. Untraced runs time one set-up after each closed loop, so the
// samples spread over the whole run and a stretch of load on the host cannot
// skew them all; traced runs time kSetupReps in a row, after an untimed one.
struct setup_samples {
    static constexpr std::size_t kSetupReps = 31;
    std::vector<double> total_s, campaign_ms, trace_ms;

    void add(const setup_timing& t) {
        total_s.push_back(t.total_s());
        campaign_ms.push_back(t.campaign_ms);
        trace_ms.push_back(t.trace_gen_ms);
    }
    void time_one(const options& opt) {
        add(prepare_timed(*make_workload(opt.workload), opt));
    }
    void fill(const options& opt) {
        prepare_timed(*make_workload(opt.workload), opt);
        while (total_s.size() < kSetupReps) time_one(opt);
    }
};

// ---- checks ---------------------------------------------------------------

struct check_log {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;

    void fail(const std::string& what) {
        if (problems.size() < 20) problems.push_back(what);
        else if (problems.size() == 20) problems.push_back("(further problems omitted)");
    }

    void account(const loop_result& r) {
        attempted += r.records.size();
        for (const auto& rec : r.records) {
            if (!rec.failed) continue;
            ++failed;
            std::ostringstream os;
            os << "decision at t=" << rec.now << ": " << rec.failure;
            fail(os.str());
        }
        for (const char* name : {"utility", "cum_utility"}) {
            const auto* series = r.run.series.find(name);
            if (series == nullptr) continue;
            for (const auto& p : series->samples()) {
                if (!std::isfinite(p.value)) {
                    fail("non-finite interval utility at t=" + std::to_string(p.time));
                    break;
                }
            }
        }
        if (!std::isfinite(r.run.cumulative_utility)) fail("non-finite cumulative utility");
        if (r.sink && r.sink->non_finite_utilities() > 0) {
            fail("non-finite utility in a search event");
        }
        if (r.intervals == 0) fail("run completed no interval");
    }

    [[nodiscard]] bool ok() const { return problems.empty(); }
};

// ---- output ---------------------------------------------------------------

struct result {
    std::vector<std::pair<const metric_def*, double>> metrics;
    std::map<std::string, std::string> notes;  // sample counts and context
    std::string scenarios_json = "[]";         // per-scenario figures (results file)

    void set(const std::vector<metric_def>& defs, const std::string& name, double v) {
        for (const auto& d : defs) {
            if (name == d.name) {
                metrics.emplace_back(&d, v);
                return;
            }
        }
        throw std::logic_error("unknown metric " + name);
    }
};

std::string metrics_json(const result& r) {
    std::string out = "{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const auto& [d, v] = r.metrics[i];
        if (i > 0) out += ", ";
        out += obs::quote(d->name) + ": {\"value\": " + obs::format_number(v) +
               ", \"unit\": " + obs::quote(d->unit) + "}";
    }
    return out + "}";
}

std::string env_or(const char* name, const char* fallback) {
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0' ? v : fallback;
}

// Peak resident set of the process since the last reset_peak_rss(), in MB.
// The reset goes through /proc/self/clear_refs; where that is unavailable the
// peak covers the whole process lifetime.
void reset_peak_rss() {
    malloc_trim(0);  // hand freed heap back, so one loop's peak is its own
    std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ms_per(double total_ms, std::size_t n) {
    return n > 0 ? total_ms / static_cast<double>(n) : 0.0;
}

double ratio(std::size_t num, std::size_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// NaN (no samples: the layer is not exercised by this workload) reads 0.
double or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

void write_spans(const std::string& path, const trace_summary& ts) {
    std::ofstream out(path);
    for (const auto& s : ts.spans) {
        out << "{\"id\": " << s.id << ", \"parent\": "
            << (s.parent == no_parent ? std::string("null") : std::to_string(s.parent))
            << ", \"name\": " << obs::quote(s.name) << ", \"start_ms\": "
            << obs::format_number(s.start_ms) << ", \"end_ms\": " << obs::format_number(s.end_ms) << "}\n";
    }
}

// Host-time figures of one scenario: each its best over the run's passes.
// Every pass repeats the scenario's decisions exactly (checked), so the k-th
// invoked decision is the same work in every pass; the best of several
// passes, spread over the run, is its time when no other load on the host
// slowed it down.
struct best_times {
    std::vector<double> decision_ms;  // per invoked decision, in run order
    std::vector<double> step_ms;      // loop_result::step_ms()
    std::size_t intervals = 0;

    // Folds in one pass; false when the pass took a different number of
    // steps or invoked a different number of decisions.
    bool add(const loop_result& r, bool first_pass) {
        std::vector<double> own;
        for (const auto& rec : r.records) {
            if (rec.invoked) own.push_back(rec.wall_ms);
        }
        std::vector<double> steps = r.step_ms();
        if (first_pass) {
            decision_ms = std::move(own);
            step_ms = std::move(steps);
            intervals = r.intervals;
            return true;
        }
        if (own.size() != decision_ms.size() || steps.size() != step_ms.size() ||
            r.intervals != intervals) {
            return false;
        }
        for (std::size_t j = 0; j < own.size(); ++j) {
            decision_ms[j] = std::min(decision_ms[j], own[j]);
        }
        for (std::size_t j = 0; j < steps.size(); ++j) {
            step_ms[j] = std::min(step_ms[j], steps[j]);
        }
        return true;
    }
};

// Decision-quality, throughput and latency of untraced passes over the run's
// scenarios. Host-time metrics are taken over each decision's and each step's
// best pass (best_times). The best of more passes reads lower, so the number
// of passes comes from --seconds and the workload's nominal pass time, never
// from the speed of the host during the run: a fast stretch must not also buy
// a run more samples.
void measure_end_to_end(const options& opt, workload& w, setup_samples& setup,
                        check_log& checks, result& res) {
    const auto& e2e = end_to_end_metrics();
    constexpr std::size_t kMinInvoked = 100;  // ≥ 10 samples beyond p90
    constexpr std::size_t kMinPasses = 2;
    const std::size_t k = w.scenarios_per_run();
    const auto pass_target = std::max(
        kMinPasses, static_cast<std::size_t>(std::floor(opt.seconds / w.pass_seconds())));
    std::vector<quality> first(k);
    std::vector<best_times> best(k);
    std::size_t passes = 0, invoked = 0, steps = 0, actions = 0, aborted = 0;
    std::vector<double> rss_mb;
    double wall = 0.0;
    const auto start = bench_clock::now();
    while (passes < pass_target) {
        for (std::size_t i = 0; i < k; ++i) {
            if (passes == 0) reset_peak_rss();
            const loop_result r = run_loop(w, i, false);
            if (passes == 0) rss_mb.push_back(peak_rss_mb());
            setup.time_one(opt);
            checks.account(r);
            wall += r.wall_s;
            if (!best[i].add(r, passes == 0)) {
                checks.fail("repeated run of scenario " + std::to_string(i) +
                            " took a different number of steps or decisions");
            }
            if (passes == 0) {
                first[i] = quality_of(r);
                invoked += r.run.invocations;
                steps += r.records.size();
                actions += r.run.total_actions;
                aborted += r.run.total_failed_actions;
            } else if (!(quality_of(r) == first[i])) {
                checks.fail("repeated run of scenario " + std::to_string(i) +
                            " changed its decisions or utility");
            }
        }
        ++passes;
        // A run must end well within three minutes, however slow the host.
        if (ms_between(start, bench_clock::now()) > 150e3) break;
    }
    if (invoked < kMinInvoked && opt.intervals == 0) {
        checks.fail("a pass invoked only " + std::to_string(invoked) +
                    " decisions; the p90 needs at least " + std::to_string(kMinInvoked));
    }

    std::vector<double> decision_ms;
    double net = 0.0;
    std::size_t intervals = 0;
    std::ostringstream per_scenario;
    for (std::size_t i = 0; i < k; ++i) {
        const auto& b = best[i];
        decision_ms.insert(decision_ms.end(), b.decision_ms.begin(), b.decision_ms.end());
        net += sum(b.step_ms) / 1000.0;
        intervals += b.intervals;
        per_scenario << (i == 0 ? "" : ", ") << "{\"utility_usd\": "
                     << obs::format_number(first[i].utility_usd)
                     << ", \"intervals\": " << b.intervals
                     << ", \"invoked\": " << b.decision_ms.size()
                     << ", \"best_net_wall_s\": " << obs::format_number(sum(b.step_ms) / 1000.0)
                     << ", \"best_decision_ms_p50\": "
                     << obs::format_number(or_zero(median(b.decision_ms)))
                     << ", \"peak_rss_mb\": " << obs::format_number(rss_mb[i]) << "}";
    }

    // Decision quality: the mean over the run's scenarios.
    quality q;
    for (const auto& f : first) {
        q.utility_usd += f.utility_usd / static_cast<double>(k);
        q.sla_violation_pct += f.sla_violation_pct / static_cast<double>(k);
        q.mean_power_w += f.mean_power_w / static_cast<double>(k);
        q.modeled_self_cost_s += f.modeled_self_cost_s / static_cast<double>(k);
    }
    res.set(e2e, "setup_s", median(setup.total_s));
    res.set(e2e, "decision_ms_p50", or_zero(quantile(decision_ms, 0.5)));
    res.set(e2e, "decision_ms_p90", or_zero(quantile(decision_ms, 0.9)));
    res.set(e2e, "intervals_per_s", net > 0.0 ? static_cast<double>(intervals) / net : 0.0);
    res.set(e2e, "peak_rss_mb", *std::max_element(rss_mb.begin(), rss_mb.end()));
    res.set(e2e, "utility_usd", q.utility_usd);
    res.set(e2e, "sla_violation_pct", q.sla_violation_pct);
    res.set(e2e, "mean_power_w", q.mean_power_w);
    res.set(e2e, "modeled_self_cost_s", q.modeled_self_cost_s);

    res.notes["scenarios"] = std::to_string(k);
    res.scenarios_json = "[" + per_scenario.str() + "]";
    res.notes["passes"] = std::to_string(passes) + " of " + std::to_string(pass_target);
    res.notes["invoked_per_pass"] = std::to_string(invoked);
    res.notes["steps_per_pass"] = std::to_string(steps);
    res.notes["actions_per_pass"] = std::to_string(actions);
    res.notes["aborted_per_pass"] = std::to_string(aborted);
    res.notes["first_scenario_utility_usd"] = obs::format_number(first[0].utility_usd);
    res.notes["decision_samples"] = std::to_string(decision_ms.size());
    res.notes["setup_samples"] = std::to_string(setup.total_s.size());
    res.notes["measured_s"] = obs::format_number(wall);
    res.notes["failed_decision_pct"] =
        obs::format_number(100.0 * ratio(checks.failed, checks.attempted));

    // The fig09 reference: the first scenario of seed 1 is the figure's run.
    if (opt.workload == "paper_day_4x2" && opt.seed == 1 && opt.intervals == 0 &&
        std::round(first[0].utility_usd * 10.0) != 1905.0) {
        checks.fail("paper_day_4x2 seed 1 utility " + obs::format_number(first[0].utility_usd) +
                    " does not match fig09's Mistral total 190.5");
    }
}

void print_attribution(const trace_summary& ts, std::size_t steps, std::ostream& out) {
    out << "\nstep wall attribution (traced run, " << steps << " steps, "
        << obs::format_number(ts.step_total_ms) << " ms)\n";
    const auto row = [&](const std::string& name, double ms) {
        char line[160];
        std::snprintf(line, sizeof(line), "  %-28s %12.3f ms %7.2f %%\n", name.c_str(), ms,
                      ts.step_total_ms > 0.0 ? 100.0 * ms / ts.step_total_ms : 0.0);
        out << line;
    };
    for (const auto& r : ts.attribution) row((r.nested ? "  " : "") + r.name, r.total_ms);
    row("unattributed", ts.unattributed_ms);
}

// Per-layer numbers for the run's first scenario: an untraced closed loop
// (recording decisions), layer replays on its recorded inputs, and a traced
// closed loop of the same scenario.
void measure_per_layer(const options& opt, workload& w, setup_samples& setup,
                       check_log& checks, result& res, std::ostream& table) {
    const auto& layer = per_layer_metrics();
    setup.fill(opt);
    const loop_result plain = run_loop(w, 0, false);
    checks.account(plain);
    constexpr int kReplayPasses = 3;
    const replay_results rep = replay_layers(w.scenario(0), plain.sut, plain.records,
                                             kReplayPasses);
    if (!rep.failure.empty()) checks.fail("layer replay: " + rep.failure);

    const loop_result traced = run_loop(w, 0, true);
    checks.account(traced);
    if (!(quality_of(plain) == quality_of(traced))) {
        checks.fail("traced run's decisions or utility differ from the untraced run");
    }
    const layer_counts lc = counts_of(plain.sut);
    if (!(lc == counts_of(traced.sut))) {
        checks.fail("traced run's controller counts differ from the untraced run");
    }
    const trace_summary ts = summarize_trace(*traced.tl, plain.sut.pods != nullptr);

    std::vector<double> step_ms;
    std::size_t traced_invoked = 0;
    for (const auto& rec : traced.records) {
        step_ms.push_back(rec.wall_ms);
        if (rec.invoked) ++traced_invoked;
    }
    double decide_ms = 0.0;
    std::size_t hits = 0, misses = 0, app_hits = 0, app_misses = 0, solves = 0, invoked = 0;
    for (const auto& rec : plain.records) {
        decide_ms += rec.wall_ms;
        if (!rec.invoked) continue;
        ++invoked;
        hits += rec.stats.eval_cache_hits;
        misses += rec.stats.eval_cache_misses;
        app_hits += rec.stats.eval_app_cache_hits;
        app_misses += rec.stats.eval_app_cache_misses;
        solves += rec.stats.eval_app_solves;
    }
    const auto count = [](auto n) { return static_cast<double>(n); };

    res.set(layer, "failed_decision_pct", 100.0 * ratio(checks.failed, checks.attempted));
    res.set(layer, "core.controller.step_ms", or_zero(median(step_ms)));
    res.set(layer, "core.controller.invoke_ratio", ratio(traced_invoked, traced.records.size()));
    res.set(layer, "core.controller.pre_search_ms", or_zero(median(ts.pre_search_ms)));
    res.set(layer, "core.controller.post_search_ms", or_zero(median(ts.post_search_ms)));
    res.set(layer, "core.controller.unattributed_pct",
            ts.step_total_ms > 0.0 ? 100.0 * ts.unattributed_ms / ts.step_total_ms : 0.0);
    res.set(layer, "core.search.wall_ms", or_zero(median(ts.search_ms)));
    res.set(layer, "core.search.expansions",
            ratio(static_cast<std::size_t>(ts.expansions), ts.searches));
    res.set(layer, "core.search.generated",
            ratio(static_cast<std::size_t>(ts.generated), ts.searches));
    res.set(layer, "core.search.ns_per_generated",
            ts.generated > 0 ? 1e6 * sum(ts.search_ms) / count(ts.generated) : 0.0);
    res.set(layer, "core.search.stay_ratio", ratio(ts.stays, ts.searches));
    res.set(layer, "core.search.pruned_ratio", ratio(ts.pruned, ts.searches));
    res.set(layer, "core.search.searches_per_step", ratio(ts.searches, ts.searching_steps));
    res.set(layer, "core.evaluator.memo_hit_rate", ratio(hits, hits + misses));
    res.set(layer, "core.evaluator.app_hit_rate", ratio(app_hits, app_hits + app_misses));
    res.set(layer, "lqn.solves_per_decision", ratio(solves, invoked));
    res.set(layer, "lqn.solve_us", or_zero(rep.lqn_solve_us.median));
    res.set(layer, "core.perf_pwr.optimize_ms", or_zero(rep.perf_pwr_optimize_ms.median));
    res.set(layer, "cluster.enumerate_us", or_zero(rep.enumerate_us.median));
    res.set(layer, "cluster.apply_ns", or_zero(rep.apply_ns.median));
    res.set(layer, "predict.arma.observe_us", or_zero(rep.arma_observe_us.median));
    res.set(layer, "sim.testbed_ms_per_interval",
            ms_per(1000.0 * plain.net_wall_s() - decide_ms, plain.intervals));
    res.set(layer, "core.coordinator.pod_step_ms", or_zero(median(ts.pod_step_ms)));
    res.set(layer, "core.coordinator.pod_imbalance", or_zero(median(ts.pod_imbalance)));
    res.set(layer, "core.coordinator.overhead_ms", or_zero(median(ts.coord_overhead_ms)));
    res.set(layer, "core.coordinator.broker_moves", count(lc.broker_moves));
    res.set(layer, "core.snapshot.checkpoint_bytes", count(rep.checkpoint_bytes));
    res.set(layer, "core.snapshot.encode_ms", or_zero(rep.snapshot_encode_ms.median));
    res.set(layer, "core.snapshot.decode_ms", or_zero(rep.snapshot_decode_ms.median));
    res.set(layer, "core.snapshot.restart_ms", or_zero(median(ts.restart_ms)));
    res.set(layer, "core.lookahead.preprovision_commits", count(lc.preprovision_commits));
    res.set(layer, "core.controller.fault_replans", count(lc.fault_replans));
    res.set(layer, "core.controller.repairs", count(lc.repairs));
    res.set(layer, "sim.aborted_actions", count(plain.run.total_failed_actions));
    res.set(layer, "cost.campaign_ms", median(setup.campaign_ms));
    res.set(layer, "workload.trace_gen_ms", median(setup.trace_ms));
    res.set(layer, "obs.trace_overhead_pct",
            100.0 * (traced.net_wall_s() / plain.net_wall_s() - 1.0));

    res.notes["searches"] = std::to_string(ts.searches);
    res.notes["searching_steps"] = std::to_string(ts.searching_steps);
    res.notes["steps"] = std::to_string(traced.records.size());
    res.notes["replay_calls"] =
        "perf_pwr=" + std::to_string(rep.perf_pwr_optimize_ms.calls) +
        " enumerate=" + std::to_string(rep.enumerate_us.calls) +
        " apply=" + std::to_string(rep.apply_ns.calls) +
        " lqn=" + std::to_string(rep.lqn_solve_us.calls) +
        " arma=" + std::to_string(rep.arma_observe_us.calls) +
        " passes=" + std::to_string(kReplayPasses);

    print_attribution(ts, traced.records.size(), table);
    const std::string spans =
        opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".spans.jsonl";
    write_spans(spans, ts);
    res.notes["spans"] = spans;
}

}  // namespace

int main(int argc, char** argv) {
    const options opt = parse(argc, argv);
    auto w = make_workload(opt.workload);
    if (!w) usage("unknown workload " + opt.workload);
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);

    double loadavg[1] = {0.0};
    if (getloadavg(loadavg, 1) < 1) loadavg[0] = -1.0;
    const std::size_t host_cpus = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t threads = opt.trace ? 1 : w->threads();
    const std::string build_type = PERFBENCH_BUILD_TYPE;

    check_log checks;
    if (threads > host_cpus) {
        checks.fail("workload needs " + std::to_string(threads) + " threads but the host has " +
                    std::to_string(host_cpus) + " CPUs");
    }

    setup_samples setup;
    result res;
    std::ostringstream table;
    table << "perfbench " << opt.workload << " seed=" << opt.seed
          << " trace=" << (opt.trace ? 1 : 0) << "\n";
    try {
        setup.add(prepare_timed(*w, opt));
        if (opt.trace) {
            measure_per_layer(opt, *w, setup, checks, res, table);
        } else {
            measure_end_to_end(opt, *w, setup, checks, res);
        }
    } catch (const std::exception& e) {
        checks.fail(std::string("run aborted: ") + e.what());
    }

    const auto& defs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
    if (res.metrics.size() != defs.size()) checks.fail("metric table incomplete");
    table << "\n";
    for (const auto& [d, v] : res.metrics) {
        if (!std::isfinite(v)) checks.fail(std::string("non-finite metric ") + d->name);
        char line[200];
        std::snprintf(line, sizeof(line), "  %-38s %16.6g %-6s %-6s (%s better)\n", d->name, v,
                      d->unit, d->kind, d->better);
        table << line;
    }
    for (const auto& [k, v] : res.notes) table << "  # " << k << ": " << v << "\n";

    std::ostringstream meta;
    meta << "{\"workload\": " << obs::quote(opt.workload) << ", \"seed\": " << opt.seed
         << ", \"trace\": " << (opt.trace ? 1 : 0)
         << ", \"git_sha\": " << obs::quote(env_or("PERFBENCH_GIT_SHA", "unknown"))
         << ", \"compiler\": " << obs::quote(PERFBENCH_COMPILER)
         << ", \"build_type\": " << obs::quote(build_type)
         << ", \"non_release_build\": " << (build_type == "Release" ? "false" : "true")
         << ", \"host_cpus\": " << host_cpus << ", \"threads\": " << threads
         << ", \"loadavg_1m_at_start\": " << obs::format_number(loadavg[0])
         << ", \"intervals_cap\": " << opt.intervals << ", \"notes\": {";
    const char* sep = "";
    for (const auto& [k, v] : res.notes) {
        meta << sep << obs::quote(k) << ": " << obs::quote(v);
        sep = ", ";
    }
    meta << "}}";

    for (const auto& p : checks.problems) std::cerr << "perfbench: CHECK FAILED: " << p << "\n";
    std::cout << table.str() << "\nmeta " << meta.str() << "\n";
    const std::string summary = std::string("{\"correct\": ") + (checks.ok() ? "true" : "false") +
                                ", \"attempted\": " + std::to_string(checks.attempted) +
                                ", \"failed\": " + std::to_string(checks.failed) +
                                ", \"metrics\": " + metrics_json(res) + "}";
    std::ofstream(opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                  "-trace" + (opt.trace ? "1" : "0") + ".json")
        << "{\"meta\": " << meta.str() << ", \"scenarios\": " << res.scenarios_json
        << ", \"result\": " << summary << "}\n";
    std::cout << summary << std::endl;
    return checks.ok() ? 0 : 1;
}
