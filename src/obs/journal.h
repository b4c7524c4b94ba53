// Structured event journal: decision records, testbed/fault events, search
// profiles, all behind one sink interface.
//
// Every instrumented component (controller, search, evaluator, testbed,
// experiment harness) takes a non-owning `obs::sink*` that defaults to
// nullptr — the null sink. Hook sites guard with `journaling(sink)` before
// building an event, so with observability off a hook costs one branch and
// default behavior/outputs stay byte-identical to a build without the
// subsystem. The sink also hands out the metrics registry (metrics.h), so
// one pointer wires both the journal and the metrics of a component.
//
// Events have a *stable schema* (see DESIGN.md §10): a `type` tag, a
// timestamp `t` (simulation seconds), and typed fields emitted in a fixed
// order per type. `jsonl_sink` serializes each event as one JSON line via
// the shared round-trip number formatter, so a journal can be parsed back
// (json.h) and reconciled against the run's final accounting — the
// round-trip is tested field-for-field and string-for-string.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace mistral::obs {

// One journal entry. Fields keep their insertion order; the builder methods
// return *this so hook sites read as one expression.
struct event {
    enum class field_kind { number, integer, boolean, text, number_list, text_list };

    struct field {
        std::string key;
        field_kind kind = field_kind::number;
        double num = 0.0;
        std::int64_t integer = 0;
        bool boolean = false;
        std::string text;
        std::vector<double> numbers;
        std::vector<std::string> texts;
    };

    std::string type;
    double time = 0.0;
    std::vector<field> fields;

    event(std::string type_tag, double t) : type(std::move(type_tag)), time(t) {}

    event& num(std::string_view key, double v);
    event& integer(std::string_view key, std::int64_t v);
    event& boolean(std::string_view key, bool v);
    event& text(std::string_view key, std::string v);
    event& num_list(std::string_view key, std::vector<double> v);
    event& text_list(std::string_view key, std::vector<std::string> v);

    [[nodiscard]] const field* find(std::string_view key) const;
};

// One event as a single JSON line (no trailing newline): `{"type":...,"t":...,
// <fields in order>}`.
[[nodiscard]] std::string to_json_line(const event& e);

// Every event type an instrumented component emits, sorted. The obs
// round-trip suite iterates this registry and fails when a type lacks a
// parse∘dump round-trip sample, so a new event type cannot ship untested:
// extend this list together with the emitter and the test's sample.
[[nodiscard]] const std::vector<std::string>& known_event_types();

// A parsed JSONL journal plus crash-consistency accounting. A process that
// dies while the file sink is mid-line leaves a *torn* final line; the reader
// skips and counts it instead of throwing, so a warm restart can always
// consume the journal its predecessor left behind. A malformed line anywhere
// but the end is real corruption and still throws invariant_error.
struct journal_contents {
    std::vector<json::value> lines;
    std::size_t torn_lines = 0;  // 0 or 1: only the final line may be torn
};

// Reads a JSONL journal, tolerating a torn final line (see journal_contents).
[[nodiscard]] journal_contents read_journal(std::istream& in);
[[nodiscard]] journal_contents read_journal_file(const std::string& path);

// The hook interface. `enabled()` gates journal emission; `metrics()` is the
// registry hooks register their handles in (nullptr = metrics off).
class sink {
public:
    virtual ~sink() = default;

    [[nodiscard]] virtual bool enabled() const = 0;
    virtual void record(const event& e) = 0;
    [[nodiscard]] virtual metrics_registry* metrics() { return nullptr; }
};

// Should this hook build and record an event? The one-branch disabled path.
[[nodiscard]] inline bool journaling(const sink* s) {
    return s != nullptr && s->enabled();
}

// Registry reachable through an optional sink (nullptr when either is off).
[[nodiscard]] inline metrics_registry* metrics_of(sink* s) {
    return s != nullptr ? s->metrics() : nullptr;
}

// Journal off. With a registry it is the metrics-only sink: components
// register and update their metrics while decisions stay byte-identical to
// an unobserved run; without one it is an explicit do-nothing default.
class null_sink final : public sink {
public:
    explicit null_sink(metrics_registry* metrics = nullptr) : metrics_(metrics) {}

    [[nodiscard]] bool enabled() const override { return false; }
    void record(const event&) override {}
    [[nodiscard]] metrics_registry* metrics() override { return metrics_; }

private:
    metrics_registry* metrics_;
};

// Writes one JSON line per event to a caller-owned stream.
class jsonl_sink : public sink {
public:
    explicit jsonl_sink(std::ostream& out, metrics_registry* metrics = nullptr)
        : out_(&out), metrics_(metrics) {}

    [[nodiscard]] bool enabled() const override { return true; }
    void record(const event& e) override { *out_ << to_json_line(e) << '\n'; }
    [[nodiscard]] metrics_registry* metrics() override { return metrics_; }

private:
    std::ostream* out_;
    metrics_registry* metrics_;
};

// jsonl_sink that owns the file it writes. With `flush_per_event` the stream
// is flushed after every line, so a crash mid-run loses at most the line
// being written (the torn tail `read_journal` tolerates) — the crash-
// consistent mode warm restart depends on.
class jsonl_file_sink final : public sink {
public:
    explicit jsonl_file_sink(const std::string& path,
                             metrics_registry* metrics = nullptr,
                             bool flush_per_event = false);

    [[nodiscard]] bool enabled() const override { return true; }
    void record(const event& e) override {
        out_ << to_json_line(e) << '\n';
        if (flush_per_event_) out_.flush();
    }
    [[nodiscard]] metrics_registry* metrics() override { return metrics_; }
    void flush() { out_.flush(); }

private:
    std::ofstream out_;
    metrics_registry* metrics_;
    bool flush_per_event_ = false;
};

// Retains every event in memory (tests, in-process reconciliation).
class memory_sink final : public sink {
public:
    explicit memory_sink(metrics_registry* metrics = nullptr)
        : metrics_(metrics) {}

    [[nodiscard]] bool enabled() const override { return true; }
    void record(const event& e) override { events_.push_back(e); }
    [[nodiscard]] metrics_registry* metrics() override { return metrics_; }

    [[nodiscard]] const std::vector<event>& events() const { return events_; }
    [[nodiscard]] std::size_t count(std::string_view type) const;
    void clear() { events_.clear(); }

private:
    std::vector<event> events_;
    metrics_registry* metrics_;
};

}  // namespace mistral::obs
