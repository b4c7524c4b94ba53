#include "core/search_meter.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/check.h"

namespace mistral::core {
namespace {

TEST(ModelClockMeter, ChargesPerEvaluation) {
    model_clock_meter m(0.01, 7.2);
    m.begin();
    EXPECT_DOUBLE_EQ(m.elapsed(), 0.0);
    for (int i = 0; i < 25; ++i) m.on_expansion();
    EXPECT_DOUBLE_EQ(m.elapsed(), 0.25);
    EXPECT_EQ(m.expansions(), 25u);
}

TEST(ModelClockMeter, BeginResets) {
    model_clock_meter m(0.01);
    m.on_expansion();
    m.on_expansion();
    m.begin();
    EXPECT_DOUBLE_EQ(m.elapsed(), 0.0);
    EXPECT_EQ(m.expansions(), 0u);
}

TEST(ModelClockMeter, DefaultPowerMatchesPaperTwelvePercent) {
    // Fig. 10a: the search draws up to 12% over a 60 W idle controller host.
    model_clock_meter m;
    EXPECT_NEAR(m.search_power() / 60.0, 0.12, 0.001);
}

TEST(ModelClockMeter, RejectsNegativeParameters) {
    EXPECT_THROW(model_clock_meter(-0.001), invariant_error);
    EXPECT_THROW(model_clock_meter(0.001, -1.0), invariant_error);
}

TEST(WallClockMeter, MeasuresRealTime) {
    wall_clock_meter m(7.2);
    m.begin();
    m.on_expansion();  // no-op for the wall clock
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GE(m.elapsed(), 0.015);
    EXPECT_LT(m.elapsed(), 5.0);
    EXPECT_DOUBLE_EQ(m.search_power(), 7.2);
}

TEST(WallClockMeter, BeginRestartsTheClock) {
    wall_clock_meter m;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    m.begin();
    EXPECT_LT(m.elapsed(), 0.015);
}

TEST(ModelClockMeter, BatchChargePricesWorkNotCalendar) {
    // The model clock prices evaluations and ignores the worker count: a
    // charge of 8 evaluations advances 8 ticks whatever `workers` says.
    model_clock_meter one(0.01), four(0.01);
    one.begin();
    four.begin();
    one.charge(8, 1);
    four.charge(8, 4);
    EXPECT_DOUBLE_EQ(one.elapsed(), 0.08);
    EXPECT_DOUBLE_EQ(four.elapsed(), one.elapsed());
}

}  // namespace
}  // namespace mistral::core
