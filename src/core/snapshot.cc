#include "core/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <variant>

#include "common/check.h"
#include "obs/json.h"

namespace mistral::core {
namespace {

using obs::json::value;

// ---- encoding helpers ----------------------------------------------------
// Doubles go through format_number: shortest exact representation, quoted
// "inf"/"-inf"/"nan" for non-finite values. Integers through to_string.
std::string enc(double v) { return obs::format_number(v); }
std::string enc(bool b) { return b ? "true" : "false"; }
std::string enc(std::int64_t v) { return std::to_string(v); }
std::string enc(int v) { return std::to_string(v); }
std::string enc(std::size_t v) { return std::to_string(v); }

template <class T, class F>
std::string enc_list(const std::vector<T>& xs, F f) {
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i != 0) out += ',';
        out += f(xs[i]);
    }
    out += ']';
    return out;
}

template <class T>
std::string enc_nums(const std::vector<T>& xs) {
    return enc_list(xs, [](double v) { return enc(v); });
}

std::string enc_bools(const std::vector<bool>& xs) {
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i != 0) out += ',';
        out += enc(static_cast<bool>(xs[i]));
    }
    out += ']';
    return out;
}

template <class T>
std::string enc_ints(const std::vector<T>& xs) {
    return enc_list(xs, [](const T& v) { return enc(v); });
}

// ---- decoding helpers ----------------------------------------------------
const value& get(const value& v, std::string_view key) {
    const value* p = v.find(key);
    MISTRAL_CHECK_MSG(p != nullptr, "snapshot: missing key '" << key << "'");
    return *p;
}

double dec_num(const value& v) {
    if (v.type() == value::kind::text) {
        const std::string& t = v.as_text();
        if (t == "inf") return std::numeric_limits<double>::infinity();
        if (t == "-inf") return -std::numeric_limits<double>::infinity();
        if (t == "nan") return std::numeric_limits<double>::quiet_NaN();
        MISTRAL_CHECK_MSG(false, "snapshot: non-numeric text '" << t << "'");
    }
    return v.as_number();
}

std::int64_t dec_int(const value& v) {
    return static_cast<std::int64_t>(std::llround(v.as_number()));
}

std::size_t dec_index(const value& v) {
    const std::int64_t i = dec_int(v);
    MISTRAL_CHECK_MSG(i >= 0, "snapshot: negative index " << i);
    return static_cast<std::size_t>(i);
}

template <class F>
auto dec_list(const value& v, F f) {
    std::vector<decltype(f(v))> out;
    out.reserve(v.items().size());
    for (const value& x : v.items()) out.push_back(f(x));
    return out;
}

std::vector<double> dec_nums(const value& v) {
    return dec_list(v, [](const value& x) { return dec_num(x); });
}

std::vector<bool> dec_bools(const value& v) {
    return dec_list(v, [](const value& x) { return x.as_bool(); });
}

std::vector<std::size_t> dec_indices(const value& v) {
    return dec_list(v, [](const value& x) { return dec_index(x); });
}

// ---- action --------------------------------------------------------------
std::string enc_action(const cluster::action& a) {
    std::string out = "{\"kind\":";
    out += obs::quote(cluster::to_string(cluster::kind_of(a)));
    std::visit(
        [&](const auto& x) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, cluster::increase_cpu> ||
                          std::is_same_v<T, cluster::decrease_cpu> ||
                          std::is_same_v<T, cluster::remove_replica>) {
                out += ",\"vm\":" + enc(x.vm.value);
            } else if constexpr (std::is_same_v<T, cluster::add_replica>) {
                out += ",\"vm\":" + enc(x.vm.value);
                out += ",\"to\":" + enc(x.to.value);
                out += ",\"cap\":" + enc(x.cpu_cap);
            } else if constexpr (std::is_same_v<T, cluster::migrate>) {
                out += ",\"vm\":" + enc(x.vm.value);
                out += ",\"to\":" + enc(x.to.value);
            } else {
                out += ",\"host\":" + enc(x.host.value);
            }
        },
        a);
    out += '}';
    return out;
}

cluster::action dec_action(const value& v) {
    const std::string& kind = get(v, "kind").as_text();
    const auto vm = [&] {
        return vm_id{static_cast<std::int32_t>(dec_int(get(v, "vm")))};
    };
    const auto to = [&] {
        return host_id{static_cast<std::int32_t>(dec_int(get(v, "to")))};
    };
    const auto host = [&] {
        return host_id{static_cast<std::int32_t>(dec_int(get(v, "host")))};
    };
    if (kind == "increase_cpu") return cluster::increase_cpu{vm()};
    if (kind == "decrease_cpu") return cluster::decrease_cpu{vm()};
    if (kind == "add_replica")
        return cluster::add_replica{vm(), to(), dec_num(get(v, "cap"))};
    if (kind == "remove_replica") return cluster::remove_replica{vm()};
    if (kind == "migrate") return cluster::migrate{vm(), to()};
    if (kind == "power_on") return cluster::power_on{host()};
    if (kind == "power_off") return cluster::power_off{host()};
    MISTRAL_CHECK_MSG(false, "snapshot: unknown action kind '" << kind << "'");
}

std::string enc_actions(const std::vector<cluster::action>& xs) {
    return enc_list(xs, enc_action);
}

std::vector<cluster::action> dec_actions(const value& v) {
    return dec_list(v, dec_action);
}

// ---- configuration -------------------------------------------------------
std::string enc_config(const cluster::configuration& c) {
    std::string out = "{\"vms\":" + enc(c.vm_count());
    out += ",\"hosts\":" + enc(c.host_count());
    out += ",\"on\":[";
    bool first = true;
    for (std::size_t h = 0; h < c.host_count(); ++h) {
        if (!c.host_on(host_id{static_cast<std::int32_t>(h)})) continue;
        if (!first) out += ',';
        first = false;
        out += enc(h);
    }
    out += "],\"down\":[";
    first = true;
    for (std::size_t h = 0; h < c.host_count(); ++h) {
        if (!c.host_failed(host_id{static_cast<std::int32_t>(h)})) continue;
        if (!first) out += ',';
        first = false;
        out += enc(h);
    }
    out += "],\"placed\":[";
    first = true;
    for (std::size_t i = 0; i < c.vm_count(); ++i) {
        const vm_id vm{static_cast<std::int32_t>(i)};
        const auto& p = c.placement(vm);
        if (!p.has_value()) continue;
        if (!first) out += ',';
        first = false;
        out += '[' + enc(i) + ',' + enc(p->host.value) + ',' + enc(p->cpu_cap) + ']';
    }
    out += "]}";
    return out;
}

cluster::configuration dec_config(const value& v) {
    cluster::configuration c(dec_index(get(v, "vms")), dec_index(get(v, "hosts")));
    for (const value& h : get(v, "on").items()) {
        c.set_host_power(host_id{static_cast<std::int32_t>(dec_int(h))}, true);
    }
    for (const value& p : get(v, "placed").items()) {
        const auto& t = p.items();
        MISTRAL_CHECK_MSG(t.size() == 3, "snapshot: malformed placement");
        c.deploy(vm_id{static_cast<std::int32_t>(dec_int(t[0]))},
                 host_id{static_cast<std::int32_t>(dec_int(t[1]))},
                 dec_num(t[2]));
    }
    // Last: marking failed forces the host off, so it must not race the
    // power/placement rebuild above (failed hosts are off and host nothing).
    for (const value& h : get(v, "down").items()) {
        c.set_host_failed(host_id{static_cast<std::int32_t>(dec_int(h))}, true);
    }
    return c;
}

// ---- predictor / validator / monitor -------------------------------------
std::string enc_predictor(const predict::predictor_state& s) {
    std::string out = "{\"estimate\":" + enc(s.estimate);
    out += ",\"beta\":" + enc(s.beta);
    out += ",\"recent_measured\":" + enc_nums(s.recent_measured);
    out += ",\"recent_errors\":" + enc_nums(s.recent_errors);
    out += ",\"all_measured\":" + enc_nums(s.all_measured);
    out += ",\"all_estimates\":" + enc_nums(s.all_estimates);
    out += ",\"cusum\":" + enc(s.cusum);
    out += ",\"trusted\":" + enc(s.trusted);
    out += ",\"divergence_count\":" + enc(s.divergence_count);
    out += ",\"fit_attempts\":" + enc(s.fit_attempts);
    out += ",\"next_fit_at\":" + enc(s.next_fit_at);
    out += ",\"fit_valid\":" + enc(s.fit_valid);
    out += ",\"fit_coeffs\":" + enc_nums(s.fit_coeffs);
    out += '}';
    return out;
}

predict::predictor_state dec_predictor(const value& v) {
    predict::predictor_state s;
    s.estimate = dec_num(get(v, "estimate"));
    s.beta = dec_num(get(v, "beta"));
    s.recent_measured = dec_nums(get(v, "recent_measured"));
    s.recent_errors = dec_nums(get(v, "recent_errors"));
    s.all_measured = dec_nums(get(v, "all_measured"));
    s.all_estimates = dec_nums(get(v, "all_estimates"));
    s.cusum = dec_num(get(v, "cusum"));
    s.trusted = get(v, "trusted").as_bool();
    s.divergence_count = static_cast<int>(dec_int(get(v, "divergence_count")));
    s.fit_attempts = static_cast<int>(dec_int(get(v, "fit_attempts")));
    s.next_fit_at = dec_index(get(v, "next_fit_at"));
    s.fit_valid = get(v, "fit_valid").as_bool();
    s.fit_coeffs = dec_nums(get(v, "fit_coeffs"));
    return s;
}

std::string enc_validator(const wl::validator_state& s) {
    std::string out = "{\"last_good\":" + enc_nums(s.last_good);
    out += ",\"has_last_good\":" + enc_bools(s.has_last_good);
    out += ",\"last_seen\":" + enc_nums(s.last_seen);
    out += ",\"repeat_count\":" + enc_ints(s.repeat_count);
    out += '}';
    return out;
}

wl::validator_state dec_validator(const value& v) {
    wl::validator_state s;
    s.last_good = dec_nums(get(v, "last_good"));
    s.has_last_good = dec_bools(get(v, "has_last_good"));
    s.last_seen = dec_nums(get(v, "last_seen"));
    s.repeat_count = dec_list(get(v, "repeat_count"), [](const value& x) {
        return static_cast<int>(dec_int(x));
    });
    return s;
}

std::string enc_monitor(const wl::monitor_state& s) {
    std::string out = "{\"scale\":" + enc(s.scale);
    out += ",\"initialized\":" + enc(s.initialized);
    out += ",\"band_centers\":" + enc_nums(s.band_centers);
    out += ",\"band_widths\":" + enc_nums(s.band_widths);
    out += ",\"band_set_at\":" + enc_nums(s.band_set_at);
    out += ",\"history\":" +
           enc_list(s.history, [](const std::vector<seconds>& h) {
               return enc_nums(h);
           });
    out += '}';
    return out;
}

wl::monitor_state dec_monitor(const value& v) {
    wl::monitor_state s;
    s.scale = dec_num(get(v, "scale"));
    s.initialized = get(v, "initialized").as_bool();
    s.band_centers = dec_nums(get(v, "band_centers"));
    s.band_widths = dec_nums(get(v, "band_widths"));
    s.band_set_at = dec_nums(get(v, "band_set_at"));
    s.history = dec_list(get(v, "history"),
                         [](const value& h) { return dec_nums(h); });
    return s;
}

// ---- controller ----------------------------------------------------------
std::string enc_lstats(const lookahead_stats& s) {
    std::string out = "{\"lookahead_decisions\":" + enc(s.lookahead_decisions);
    out += ",\"preprovision_commits\":" + enc(s.preprovision_commits);
    out += ",\"reactive_commits\":" + enc(s.reactive_commits);
    out += ",\"forecast_divergences\":" + enc(s.forecast_divergences);
    out += ",\"deadline_demotions\":" + enc(s.deadline_demotions);
    out += '}';
    return out;
}

lookahead_stats dec_lstats(const value& v) {
    lookahead_stats s;
    s.lookahead_decisions = dec_int(get(v, "lookahead_decisions"));
    s.preprovision_commits = dec_int(get(v, "preprovision_commits"));
    s.reactive_commits = dec_int(get(v, "reactive_commits"));
    s.forecast_divergences = dec_int(get(v, "forecast_divergences"));
    s.deadline_demotions = dec_int(get(v, "deadline_demotions"));
    return s;
}

std::string enc_rstats(const reconcile_stats& s) {
    std::string out = "{\"failed_actions\":" + enc(s.failed_actions);
    out += ",\"fault_replans\":" + enc(s.fault_replans);
    out += ",\"repairs\":" + enc(s.repairs);
    out += ",\"drift_intervals\":" + enc(s.drift_intervals);
    out += ",\"wasted_adaptation_time\":" + enc(s.wasted_adaptation_time);
    out += ",\"wasted_transient_cost\":" + enc(s.wasted_transient_cost);
    out += '}';
    return out;
}

reconcile_stats dec_rstats(const value& v) {
    reconcile_stats s;
    s.failed_actions = dec_int(get(v, "failed_actions"));
    s.fault_replans = dec_int(get(v, "fault_replans"));
    s.repairs = dec_int(get(v, "repairs"));
    s.drift_intervals = dec_int(get(v, "drift_intervals"));
    s.wasted_adaptation_time = dec_num(get(v, "wasted_adaptation_time"));
    s.wasted_transient_cost = dec_num(get(v, "wasted_transient_cost"));
    return s;
}

std::string enc_dstats(const degraded_stats& s) {
    std::string out = "{\"degraded_windows\":" + enc(s.degraded_windows);
    out += ",\"garbage_windows\":" + enc(s.garbage_windows);
    out += ",\"demotions\":" + enc(s.demotions);
    out += ",\"promotions\":" + enc(s.promotions);
    out += ",\"held_triggers\":" + enc(s.held_triggers);
    out += ",\"greedy_decisions\":" + enc(s.greedy_decisions);
    out += ",\"deadline_trips\":" + enc(s.deadline_trips);
    out += '}';
    return out;
}

degraded_stats dec_dstats(const value& v) {
    degraded_stats s;
    s.degraded_windows = dec_int(get(v, "degraded_windows"));
    s.garbage_windows = dec_int(get(v, "garbage_windows"));
    s.demotions = dec_int(get(v, "demotions"));
    s.promotions = dec_int(get(v, "promotions"));
    s.held_triggers = dec_int(get(v, "held_triggers"));
    s.greedy_decisions = dec_int(get(v, "greedy_decisions"));
    s.deadline_trips = dec_int(get(v, "deadline_trips"));
    return s;
}

std::string enc_controller(const controller_state& s) {
    std::string out = "{\"monitor\":" + enc_monitor(s.monitor);
    out += ",\"validator\":" + enc_validator(s.validator);
    out += ",\"predictors\":" + enc_list(s.predictors, enc_predictor);
    out += ",\"utility_history\":" + enc_nums(s.utility_history);
    out += ",\"first_step\":" + enc(s.first_step);
    out += ",\"rate_forecasters\":" + enc_list(s.rate_forecasters, enc_predictor);
    out += ",\"prev_forecaster_trusted\":" + enc_bools(s.prev_forecaster_trusted);
    out += ",\"lookahead_deadline_tripped\":" + enc(s.lookahead_deadline_tripped);
    out += ",\"lstats\":" + enc_lstats(s.lstats);
    out += ",\"rstats\":" + enc_rstats(s.rstats);
    out += ",\"intended\":" + (s.intended.has_value() ? enc_config(*s.intended)
                                                      : std::string("null"));
    out += ",\"fault_rounds\":" + enc(s.fault_rounds);
    out += ",\"mode\":" + enc(static_cast<int>(s.mode));
    out += ",\"clean_steps\":" + enc(s.clean_steps);
    out += ",\"deadline_tripped\":" + enc(s.deadline_tripped);
    out += ",\"prev_trusted\":" + enc_bools(s.prev_trusted);
    out += ",\"dstats\":" + enc_dstats(s.dstats);
    out += ",\"power_cap\":" + enc(s.power_cap);
    out += '}';
    return out;
}

controller_state dec_controller(const value& v) {
    controller_state s;
    s.monitor = dec_monitor(get(v, "monitor"));
    s.validator = dec_validator(get(v, "validator"));
    s.predictors = dec_list(get(v, "predictors"), dec_predictor);
    s.utility_history = dec_nums(get(v, "utility_history"));
    s.first_step = get(v, "first_step").as_bool();
    s.rate_forecasters = dec_list(get(v, "rate_forecasters"), dec_predictor);
    s.prev_forecaster_trusted = dec_bools(get(v, "prev_forecaster_trusted"));
    s.lookahead_deadline_tripped =
        get(v, "lookahead_deadline_tripped").as_bool();
    s.lstats = dec_lstats(get(v, "lstats"));
    s.rstats = dec_rstats(get(v, "rstats"));
    const value& intended = get(v, "intended");
    if (intended.type() != value::kind::null) s.intended = dec_config(intended);
    s.fault_rounds = static_cast<int>(dec_int(get(v, "fault_rounds")));
    const std::int64_t mode = dec_int(get(v, "mode"));
    MISTRAL_CHECK_MSG(mode >= 0 && mode <= 3,
                      "snapshot: unknown control mode " << mode);
    s.mode = static_cast<control_mode>(mode);
    s.clean_steps = static_cast<int>(dec_int(get(v, "clean_steps")));
    s.deadline_tripped = get(v, "deadline_tripped").as_bool();
    s.prev_trusted = dec_bools(get(v, "prev_trusted"));
    s.dstats = dec_dstats(get(v, "dstats"));
    s.power_cap = dec_num(get(v, "power_cap"));
    return s;
}

// ---- coordinator ---------------------------------------------------------
std::string enc_pod(const pod_controller_state& s) {
    std::string out = "{\"apps\":" + enc_ints(s.apps);
    out += ",\"budget\":" + enc(s.budget);
    out += ",\"controller\":" + (s.controller.has_value()
                                     ? enc_controller(*s.controller)
                                     : std::string("null"));
    out += '}';
    return out;
}

pod_controller_state dec_pod(const value& v) {
    pod_controller_state s;
    s.apps = dec_indices(get(v, "apps"));
    s.budget = dec_num(get(v, "budget"));
    const value& c = get(v, "controller");
    if (c.type() != value::kind::null) s.controller = dec_controller(c);
    return s;
}

std::string enc_health(const pod_health& h) {
    return "{\"quarantined\":" + enc(h.quarantined) +
           ",\"clean_intervals\":" + enc(h.clean_intervals) + '}';
}

pod_health dec_health(const value& v) {
    pod_health h;
    h.quarantined = get(v, "quarantined").as_bool();
    h.clean_intervals = static_cast<int>(dec_int(get(v, "clean_intervals")));
    return h;
}

std::string enc_pending(const pending_migration& p) {
    std::string out = "{\"app\":" + enc(p.app);
    out += ",\"from\":" + enc(p.from);
    out += ",\"to\":" + enc(p.to);
    out += ",\"plan\":" + enc_actions(p.plan);
    out += ",\"prepared_at\":" + enc(p.prepared_at);
    out += ",\"intervals_left\":" + enc(p.intervals_left);
    out += '}';
    return out;
}

pending_migration dec_pending(const value& v) {
    pending_migration p;
    p.app = dec_index(get(v, "app"));
    p.from = dec_index(get(v, "from"));
    p.to = dec_index(get(v, "to"));
    p.plan = dec_actions(get(v, "plan"));
    p.prepared_at = dec_num(get(v, "prepared_at"));
    p.intervals_left = static_cast<int>(dec_int(get(v, "intervals_left")));
    return p;
}

std::string enc_coordinator(const coordinator_state& s) {
    std::string out = "{\"pods\":" + enc_list(s.pods, enc_pod);
    out += ",\"budgets\":" + enc_nums(s.budgets);
    out += ",\"brokered_migrations\":" + enc(s.brokered_migrations);
    out += ",\"stray_apps\":" + enc_ints(s.stray_apps);
    out += ",\"health\":" + enc_list(s.health, enc_health);
    out += ",\"pending\":" + enc_list(s.pending, enc_pending);
    out += '}';
    return out;
}

coordinator_state dec_coordinator(const value& v) {
    coordinator_state s;
    s.pods = dec_list(get(v, "pods"), dec_pod);
    s.budgets = dec_nums(get(v, "budgets"));
    s.brokered_migrations = dec_int(get(v, "brokered_migrations"));
    s.stray_apps = dec_indices(get(v, "stray_apps"));
    s.health = dec_list(get(v, "health"), dec_health);
    s.pending = dec_list(get(v, "pending"), dec_pending);
    return s;
}

}  // namespace

// ---- public codecs -------------------------------------------------------
std::string to_json(const snapshot& s) {
    std::string out = "{\"version\":" + enc(s.version);
    out += ",\"taken_at\":" + enc(s.taken_at);
    out += ",\"state\":" + enc_coordinator(s.state);
    out += '}';
    return out;
}

snapshot snapshot_from_json(std::string_view text) {
    const value v = value::parse(text);
    snapshot s;
    s.version = static_cast<int>(dec_int(get(v, "version")));
    MISTRAL_CHECK_MSG(s.version == snapshot_version,
                      "snapshot: version " << s.version << " != supported "
                                           << snapshot_version);
    s.taken_at = dec_num(get(v, "taken_at"));
    s.state = dec_coordinator(get(v, "state"));
    return s;
}

std::string to_json(const decision_input& in) {
    std::string out = "{\"now\":" + enc(in.now);
    out += ",\"rates\":" + enc_nums(in.rates);
    out += ",\"current\":" + enc_config(in.current);
    out += ",\"last_interval_utility\":" + enc(in.last_interval_utility);
    out += ",\"failed\":" + enc_actions(in.failed);
    out += ",\"in_flight\":" + enc_actions(in.in_flight);
    out += ",\"hosts_failed\":" + enc_ints(in.hosts_failed);
    out += ",\"hosts_recovered\":" + enc_ints(in.hosts_recovered);
    out += ",\"response_times\":" + enc_nums(in.response_times);
    out += ",\"samples\":" + enc_nums(in.samples);
    out += '}';
    return out;
}

decision_input decision_input_from_json(std::string_view text) {
    const value v = value::parse(text);
    decision_input in;
    in.now = dec_num(get(v, "now"));
    in.rates = dec_nums(get(v, "rates"));
    in.current = dec_config(get(v, "current"));
    in.last_interval_utility = dec_num(get(v, "last_interval_utility"));
    in.failed = dec_actions(get(v, "failed"));
    in.in_flight = dec_actions(get(v, "in_flight"));
    in.hosts_failed = dec_list(get(v, "hosts_failed"), [](const value& x) {
        return static_cast<std::int32_t>(dec_int(x));
    });
    in.hosts_recovered =
        dec_list(get(v, "hosts_recovered"), [](const value& x) {
            return static_cast<std::int32_t>(dec_int(x));
        });
    in.response_times = dec_nums(get(v, "response_times"));
    in.samples = dec_nums(get(v, "samples"));
    return in;
}

std::string to_json(const cluster::configuration& c) { return enc_config(c); }

cluster::configuration configuration_from_json(std::string_view text) {
    return dec_config(value::parse(text));
}

std::string to_json(const cluster::action& a) { return enc_action(a); }

cluster::action action_from_json(std::string_view text) {
    return dec_action(value::parse(text));
}

// ---- restartable_coordinator ---------------------------------------------
restartable_coordinator::restartable_coordinator(
    std::function<std::unique_ptr<global_coordinator>()> factory,
    restart_options options, gate_sink* gate)
    : factory_(std::move(factory)), options_(std::move(options)), gate_(gate) {
    MISTRAL_CHECK_MSG(factory_ != nullptr,
                      "restartable_coordinator needs a factory");
    MISTRAL_CHECK(options_.checkpoint_every >= 0);
    std::sort(options_.restart_at.begin(), options_.restart_at.end());
    inner_ = factory_();
    MISTRAL_CHECK_MSG(inner_ != nullptr, "factory returned no coordinator");
}

strategy::outcome restartable_coordinator::decide(const decision_input& in) {
    while (next_restart_ < options_.restart_at.size() &&
           options_.restart_at[next_restart_] <= in.now) {
        ++next_restart_;
        restart(in.now);
    }
    outcome out = inner_->decide(in);
    ++decides_;
    tail_.push_back(to_json(in));
    if (options_.checkpoint_every > 0 &&
        tail_.size() >= static_cast<std::size_t>(options_.checkpoint_every)) {
        checkpoint_ =
            to_json(snapshot{snapshot_version, in.now, inner_->export_state()});
        checkpoint_at_ = in.now;
        tail_.clear();
        if (obs::journaling(gate_)) {
            gate_->record(obs::event("checkpoint", in.now)
                              .integer("version", snapshot_version)
                              .integer("intervals", decides_)
                              .integer("bytes", static_cast<std::int64_t>(
                                                    checkpoint_.size())));
        }
    }
    return out;
}

void restartable_coordinator::restart(seconds now) {
    ++restarts_;
    inner_ = factory_();
    MISTRAL_CHECK_MSG(inner_ != nullptr, "factory returned no coordinator");
    if (!checkpoint_.empty()) {
        const snapshot snap = snapshot_from_json(checkpoint_);
        inner_->import_state(snap.state, snap.taken_at);
    }
    // Replay the decision tail with the journal gate closed: these intervals
    // were already journaled (and their actions executed) the first time.
    if (gate_ != nullptr) gate_->open(false);
    std::int64_t replayed = 0;
    try {
        for (const std::string& line : tail_) {
            (void)inner_->decide(decision_input_from_json(line));
            ++replayed;
        }
    } catch (...) {
        if (gate_ != nullptr) gate_->open(true);
        throw;
    }
    if (gate_ != nullptr) gate_->open(true);
    if (obs::journaling(gate_)) {
        gate_->record(obs::event("restart", now)
                          .integer("replayed", replayed)
                          .num("checkpoint_t",
                               checkpoint_.empty() ? -1.0 : checkpoint_at_));
    }
}

}  // namespace mistral::core
