// The one timing module: monotonic_ns() for whole-run totals, and
// serialized-TSC stamp pairs converted by tsc_delta_us() for per-span
// histograms sharing phase_us_buckets().  These pin the properties every
// `*.phase.*_us` histogram and `*.run.wall_ns` counter relies on.
#include "pcn/obs/tsc.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "pcn/obs/metrics.hpp"

namespace pcn::obs {
namespace {

TEST(Tsc, MonotonicNsAdvancesAcrossASleep) {
  const std::int64_t before = monotonic_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::int64_t after = monotonic_ns();
  // sleep_for waits at least the requested duration on the steady clock.
  EXPECT_GE(after - before, 2'000'000);
}

TEST(Tsc, StampsNeverRunBackwardsOnOneThread) {
  std::int64_t last_ns = monotonic_ns();
  std::uint64_t last_tsc = serialized_tsc();
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t now_ns = monotonic_ns();
    const std::uint64_t now_tsc = serialized_tsc();
    ASSERT_GE(now_ns, last_ns) << "read " << i;
    ASSERT_GE(now_tsc, last_tsc) << "read " << i;
    last_ns = now_ns;
    last_tsc = now_tsc;
  }
}

TEST(Tsc, TicksPerNsIsCalibratedOncePerProcess) {
  const double ratio = tsc_ticks_per_ns();
  EXPECT_TRUE(std::isfinite(ratio));
  EXPECT_GT(ratio, 0.0);
  // The calibration spin runs on first use only; later calls return the
  // same ratio, so every span in a process converts with one scale.
  EXPECT_EQ(tsc_ticks_per_ns(), ratio);
}

TEST(Tsc, DeltaUsTracksTheSteadyClock) {
  (void)tsc_ticks_per_ns();  // keep the calibration spin out of the span
  // The TSC stamps enclose the steady-clock stamps, so the TSC span can
  // only be longer; the factor-of-4 window leaves room for calibration
  // error and preemption on a loaded host.
  const std::uint64_t t0 = serialized_tsc();
  const std::int64_t n0 = monotonic_ns();
  std::int64_t n1 = n0;
  while (n1 - n0 < 20'000'000) n1 = monotonic_ns();
  const std::uint64_t t1 = serialized_tsc();
  const double steady_us = static_cast<double>(n1 - n0) / 1000.0;
  const double tsc_us = tsc_delta_us(t0, t1);
  EXPECT_GT(tsc_us, steady_us / 4.0);
  EXPECT_LT(tsc_us, steady_us * 4.0);
  EXPECT_EQ(tsc_delta_us(t0, t0), 0.0);
}

TEST(Tsc, PhaseBucketsDoubleFromOneMicrosecond) {
  const std::vector<double> bounds = phase_us_buckets();
  EXPECT_EQ(bounds, exponential_buckets(1.0, 2.0, 20));
  ASSERT_EQ(bounds.size(), 20U);
  EXPECT_EQ(bounds.front(), 1.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i], 2.0 * bounds[i - 1]) << "bucket " << i;
  }
  // The top bucket covers ~0.5 s, past any phase the project runs.
  EXPECT_EQ(bounds.back(), 524'288.0);
}

}  // namespace
}  // namespace pcn::obs
