#include "trace.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace perfbench {

namespace {

class builder {
public:
    builder(trace_summary& s, bench_clock::time_point origin) : s_(&s), origin_(origin) {}

    std::size_t add(std::size_t parent, const std::string& name, bench_clock::time_point a,
                    bench_clock::time_point b, bool tiles) {
        const std::size_t id = s_->spans.size();
        s_->spans.push_back({.id = id,
                             .parent = parent,
                             .name = name,
                             .start_ms = ms_between(origin_, a),
                             .end_ms = ms_between(origin_, b)});
        if (parent != no_parent) {
            const double ms = ms_between(a, b);
            const std::string key = tiles ? name : s_->spans[parent].name + "." + name;
            auto it = std::find_if(s_->attribution.begin(), s_->attribution.end(),
                                   [&](const auto& r) { return r.name == key; });
            if (it == s_->attribution.end()) {
                s_->attribution.push_back({.name = key, .nested = !tiles});
                it = std::prev(s_->attribution.end());
            }
            it->total_ms += ms;
            if (tiles) covered_ += ms;
        }
        return id;
    }

    double take_covered() { return std::exchange(covered_, 0.0); }

private:
    trace_summary* s_;
    bench_clock::time_point origin_;
    double covered_ = 0.0;
};

void flat_step(const timeline& tl, std::size_t i, std::size_t j, std::size_t root,
               builder& b, trace_summary& s) {
    struct search_pair {
        bench_clock::time_point begin, end;
    };
    std::vector<search_pair> pairs;
    const mark* open = nullptr;
    for (std::size_t k = i + 1; k < j; ++k) {
        if (tl[k].kind == mark_kind::search_begin) {
            open = &tl[k];
        } else if (tl[k].kind == mark_kind::search_end && open != nullptr) {
            pairs.push_back({open->t, tl[k].t});
            open = nullptr;
        }
    }
    if (pairs.empty()) {
        b.add(root, "no_search_step", tl[i].t, tl[j].t, true);
        return;
    }
    ++s.searching_steps;
    s.pre_search_ms.push_back(ms_between(tl[i].t, pairs.front().begin));
    s.post_search_ms.push_back(ms_between(pairs.back().end, tl[j].t));
    b.add(root, "pre_search", tl[i].t, pairs.front().begin, true);
    for (const auto& p : pairs) {
        b.add(root, "search", p.begin, p.end, true);
        s.search_ms.push_back(ms_between(p.begin, p.end));
    }
    b.add(root, "post_search", pairs.back().end, tl[j].t, true);
}

void pod_step(const timeline& tl, std::size_t i, std::size_t j, std::size_t root,
              builder& b, trace_summary& s) {
    auto cursor = tl[i].t;
    const mark* search_end = nullptr;
    std::vector<double> pods;
    for (std::size_t k = i + 1; k < j; ++k) {
        const mark& m = tl[k];
        switch (m.kind) {
            case mark_kind::restart:
                b.add(root, "restart", cursor, m.t, true);
                s.restart_ms.push_back(ms_between(cursor, m.t));
                cursor = m.t;
                break;
            case mark_kind::pod_budget:
                b.add(root, "coordinator_pre", cursor, m.t, true);
                cursor = m.t;
                break;
            case mark_kind::search_end:
                search_end = &m;
                break;
            case mark_kind::decision: {
                const std::size_t pod = b.add(root, "pod_step", cursor, m.t, true);
                if (search_end != nullptr) {
                    ++s.searching_steps;
                    b.add(pod, "search", cursor, search_end->t, false);
                    b.add(pod, "post_search", search_end->t, m.t, false);
                    s.search_ms.push_back(ms_between(cursor, search_end->t));
                    s.post_search_ms.push_back(ms_between(search_end->t, m.t));
                }
                pods.push_back(ms_between(cursor, m.t));
                cursor = m.t;
                search_end = nullptr;
                break;
            }
            default:
                break;
        }
    }
    b.add(root, "coordinator_post", cursor, tl[j].t, true);
    if (pods.empty()) return;
    s.pod_step_ms.insert(s.pod_step_ms.end(), pods.begin(), pods.end());
    const double total = std::accumulate(pods.begin(), pods.end(), 0.0);
    if (pods.size() >= 2 && total > 0.0) {
        const double mean = total / static_cast<double>(pods.size());
        s.pod_imbalance.push_back(*std::max_element(pods.begin(), pods.end()) / mean);
    }
    s.coord_overhead_ms.push_back(ms_between(tl[i].t, tl[j].t) - total);
}

}  // namespace

trace_summary summarize_trace(const timeline& tl, bool pods) {
    trace_summary s;
    if (tl.empty()) return s;
    builder b(s, tl.front().t);
    for (const mark& m : tl) {
        if (m.kind != mark_kind::search_end) continue;
        ++s.searches;
        s.expansions += m.expansions;
        s.generated += m.generated;
        if (m.plan_actions == 0) ++s.stays;
        if (m.pruned) ++s.pruned;
    }
    std::size_t i = 0;
    while (i < tl.size()) {
        if (tl[i].kind != mark_kind::step_begin) {
            ++i;
            continue;
        }
        std::size_t j = i + 1;
        while (j < tl.size() && tl[j].kind != mark_kind::step_end) ++j;
        if (j == tl.size()) break;
        const std::size_t root = b.add(no_parent, "decide", tl[i].t, tl[j].t, true);
        if (pods) {
            pod_step(tl, i, j, root, b, s);
        } else {
            flat_step(tl, i, j, root, b, s);
        }
        const double step = ms_between(tl[i].t, tl[j].t);
        s.step_total_ms += step;
        s.unattributed_ms += std::max(0.0, step - b.take_covered());
        i = j + 1;
    }
    return s;
}

}  // namespace perfbench
