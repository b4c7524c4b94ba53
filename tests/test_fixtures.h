// Shared test fixtures: the RUBiS cluster and starting configuration most
// tests build on, and the bit-exact run comparison of the differential
// harnesses (degraded mode, econ and lookahead equivalence).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "apps/rubis.h"
#include "cluster/configuration.h"
#include "cluster/model.h"
#include "core/experiment.h"
#include "obs/journal.h"
#include "sim/faults.h"
#include "workload/generators.h"

namespace mistral::test_support {

// `apps` RUBiS browsing applications named R0, R1, … on `hosts` uniform hosts.
inline cluster::cluster_model make_model(std::size_t hosts, std::size_t apps) {
    std::vector<apps::application_spec> specs;
    for (std::size_t a = 0; a < apps; ++a) {
        std::string name = "R";
        name += std::to_string(a);
        specs.push_back(apps::rubis_browsing(name));
    }
    return cluster::cluster_model(cluster::uniform_hosts(hosts), std::move(specs));
}

// Every host on; each application's minimum replica set (one VM per tier)
// at a 0.4 cap, spread over the application's share of the hosts.
inline cluster::configuration base_config(const cluster::cluster_model& model) {
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

inline std::uint64_t bits_of(double v) {
    std::uint64_t b;
    static_assert(sizeof b == sizeof v);
    std::memcpy(&b, &v, sizeof b);
    return b;
}

// A 90-minute, 4-host/2-app scenario whose workloads actually move (a flash
// crowd on app a, a step on app b; `seed` drives the generators' noise), so
// band exits, forecasts and adaptation all get exercised.
inline core::scenario moving_scenario(std::uint64_t seed,
                                      sim::sensor_fault_options sensors = {},
                                      sim::fault_options testbed_faults = {},
                                      obs::sink* sink = nullptr) {
    core::scenario_options opts;
    opts.host_count = 4;
    opts.app_count = 2;
    wl::generator_options gen;
    gen.duration = 1.5 * 3600.0;
    gen.seed = seed;
    gen.noise = 0.02;
    opts.traces = {wl::flash_crowd_trace("a", 25.0, 85.0, 2400.0, 600.0,
                                         1200.0, gen),
                   wl::step_trace("b", 30.0, 55.0, 3000.0, gen)};
    opts.sensor_faults = sensors;
    opts.testbed.faults = testbed_faults;
    opts.sink = sink;
    return core::make_rubis_scenario(opts);
}

// Two runs are identical to the last bit: utility, power, decisions, modeled
// search delays, SLA violations and every interval's utility.
inline void expect_identical_runs(const core::run_result& a,
                                  const core::run_result& b) {
    EXPECT_EQ(bits_of(a.cumulative_utility), bits_of(b.cumulative_utility));
    EXPECT_EQ(bits_of(a.mean_power), bits_of(b.mean_power));
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.total_actions, b.total_actions);
    EXPECT_EQ(a.total_failed_actions, b.total_failed_actions);
    EXPECT_EQ(bits_of(a.search_duration.mean()),
              bits_of(b.search_duration.mean()));
    EXPECT_EQ(bits_of(a.search_duration.max()),
              bits_of(b.search_duration.max()));
    EXPECT_EQ(a.violation_fraction, b.violation_fraction);
    const auto* ua = a.series.find("utility");
    const auto* ub = b.series.find("utility");
    ASSERT_NE(ua, nullptr);
    ASSERT_NE(ub, nullptr);
    ASSERT_EQ(ua->size(), ub->size());
    for (std::size_t i = 0; i < ua->size(); ++i) {
        ASSERT_EQ(bits_of(ua->samples()[i].value),
                  bits_of(ub->samples()[i].value))
            << "interval " << i;
    }
}

}  // namespace mistral::test_support
