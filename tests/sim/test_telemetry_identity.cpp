// NetworkConfig::collect_runtime_stats is purely observational: every
// TerminalMetrics value must be bit-identical with telemetry on or off, at
// any thread count (the flag may not touch RNG streams or event order).
// This is the tier-1 guarantee the telemetry subsystem is built on — see
// docs/observability.md.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "pcn/obs/tsc.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/sim/simd_engine.hpp"

namespace pcn::sim {
namespace {

constexpr MobilityProfile kProfile{0.2, 0.05};
constexpr CostWeights kWeights{50.0, 2.0};
constexpr int kTerminals = 24;
constexpr std::int64_t kSlots = 8000;

NetworkConfig make_config(bool telemetry, int threads) {
  NetworkConfig config{Dimension::kTwoD, SlotSemantics::kChainFaithful, 77};
  config.threads = threads;
  config.collect_runtime_stats = telemetry;
  config.update_loss_prob = 0.01;  // exercise the retry/fallback paths too
  return config;
}

/// A fleet mixing all four policy kinds round-robin with varied parameters.
std::vector<TerminalId> add_mixed_fleet(Network& network) {
  std::vector<TerminalId> ids;
  for (int i = 0; i < kTerminals; ++i) {
    switch (i % 4) {
      case 0:
        ids.push_back(network.add_terminal(make_distance_terminal(
            Dimension::kTwoD, kProfile, 1 + i % 4, DelayBound(2))));
        break;
      case 1:
        ids.push_back(network.add_terminal(make_movement_terminal(
            Dimension::kTwoD, kProfile, 2 + i % 4, DelayBound(3))));
        break;
      case 2:
        ids.push_back(network.add_terminal(
            make_time_terminal(Dimension::kTwoD, kProfile, 10 + i % 7)));
        break;
      default:
        ids.push_back(network.add_terminal(
            make_la_terminal(Dimension::kTwoD, kProfile, 1 + i % 3)));
        break;
    }
  }
  return ids;
}

void expect_histograms_equal(const stats::Histogram& a,
                             const stats::Histogram& b) {
  ASSERT_EQ(a.bucket_count(), b.bucket_count());
  EXPECT_EQ(a.total(), b.total());
  for (int v = 0; v < a.bucket_count(); ++v) {
    EXPECT_EQ(a.count(v), b.count(v)) << "bucket " << v;
  }
}

void expect_metrics_identical(const TerminalMetrics& a,
                              const TerminalMetrics& b, TerminalId id) {
  SCOPED_TRACE(::testing::Message() << "terminal " << id);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.polled_cells, b.polled_cells);
  EXPECT_EQ(a.update_bytes, b.update_bytes);
  EXPECT_EQ(a.paging_bytes, b.paging_bytes);
  EXPECT_EQ(a.lost_updates, b.lost_updates);
  EXPECT_EQ(a.paging_failures, b.paging_failures);
  // Exact comparison is intentional even for the floating-point costs:
  // both runs must execute the identical per-event addends in the
  // identical per-terminal order.
  EXPECT_EQ(a.update_cost, b.update_cost);
  EXPECT_EQ(a.paging_cost, b.paging_cost);
  expect_histograms_equal(a.paging_cycles, b.paging_cycles);
  expect_histograms_equal(a.ring_distance, b.ring_distance);
}

TEST(TelemetryIdentity, MetricsBitIdenticalAcrossStatsFlagAndThreads) {
  // Reference: telemetry off, single-threaded.
  Network reference(make_config(false, 1), kWeights);
  const std::vector<TerminalId> ids = add_mixed_fleet(reference);
  reference.run(kSlots);

  for (const bool telemetry : {false, true}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "collect_runtime_stats="
                                        << telemetry << " threads="
                                        << threads);
      Network network(make_config(telemetry, threads), kWeights);
      add_mixed_fleet(network);
      network.run(kSlots);
      for (const TerminalId id : ids) {
        expect_metrics_identical(reference.metrics(id), network.metrics(id),
                                 id);
      }
    }
  }
}

/// A canonical fleet (distance updates, SDF paging; the caller turns loss
/// injection off): kAuto runs it on the SIMD engine whenever a kernel is
/// available.
void add_canonical_fleet(Network& network) {
  for (int i = 0; i < kTerminals; ++i) {
    network.add_terminal(make_distance_terminal(
        Dimension::kTwoD, kProfile, 1 + i % 4, DelayBound(1 + i % 3)));
  }
}

/// Observation count of a registry histogram (0 when never registered).
std::int64_t histogram_count(const obs::MetricsSnapshot& snapshot,
                             std::string_view name) {
  const obs::HistogramSample* histogram = snapshot.find_histogram(name);
  return histogram == nullptr ? 0 : histogram->count;
}

TEST(TelemetryIdentity, RegistryPopulatedOnlyWhenEnabled) {
  for (const bool canonical : {false, true}) {
    for (const bool telemetry : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (canonical ? "canonical" : "mixed")
                   << " fleet, collect_runtime_stats=" << telemetry);
      NetworkConfig config = make_config(telemetry, 4);
      if (canonical) config.update_loss_prob = 0.0;
      Network network(config, kWeights);
      if (canonical) {
        add_canonical_fleet(network);
      } else {
        add_mixed_fleet(network);
      }
      network.run(2000);
      EXPECT_EQ(network.simd_active(),
                canonical && simd_support().available);

      const obs::MetricsSnapshot snapshot =
          network.metrics_registry().snapshot();
      const std::int64_t segments =
          histogram_count(snapshot, "sim.phase.segment_us");
      const std::int64_t shards =
          histogram_count(snapshot, "sim.phase.shard_us");
      const std::int64_t pages =
          histogram_count(snapshot, "sim.phase.page_us");
      if (!telemetry) {
        EXPECT_EQ(snapshot.counter_value("sim.run.slots"), 0);
        EXPECT_EQ(segments, 0);
        EXPECT_EQ(shards, 0);
        EXPECT_EQ(pages, 0);
        continue;
      }
      EXPECT_EQ(snapshot.counter_value("sim.run.slots"), 2000);
      EXPECT_EQ(snapshot.counter_value("sim.terminal.slots"),
                2000 * std::int64_t{kTerminals});
      EXPECT_GT(snapshot.counter_value("sim.run.wall_ns"), 0);
      EXPECT_GT(snapshot.counter_value("sim.update.count"), 0);
      EXPECT_GT(snapshot.counter_value("sim.page.count"), 0);
      EXPECT_GE(segments, 1);
      EXPECT_GE(shards, 1);
      // Every sampled page is timed, on either engine.
      EXPECT_GT(snapshot.counter_value("sim.page.sampled"), 0);
      EXPECT_EQ(pages, snapshot.counter_value("sim.page.sampled"));
    }
  }
}

TEST(TelemetryIdentity, PhaseHistogramsShareTheDaemonBucketLayout) {
  // The simulator's span histograms use the same layout as pcnd's
  // daemon.phase.* histograms, so one dashboard reads both.
  Network network(make_config(true, 4), kWeights);
  add_mixed_fleet(network);
  network.run(2000);
  const obs::MetricsSnapshot snapshot =
      network.metrics_registry().snapshot();
  for (const char* name :
       {"sim.phase.segment_us", "sim.phase.shard_us", "sim.phase.page_us"}) {
    SCOPED_TRACE(name);
    const obs::HistogramSample* histogram = snapshot.find_histogram(name);
    ASSERT_NE(histogram, nullptr);
    EXPECT_EQ(histogram->bounds, obs::phase_us_buckets());
    EXPECT_GT(histogram->count, 0);
    EXPECT_GT(histogram->sum, 0.0);
  }
}

TEST(TelemetryIdentity, ResumedRunsKeepCounting) {
  // Network::run resumes where the last call stopped; the registry must
  // accumulate across calls (pcnctl --progress slices runs this way).
  Network network(make_config(true, 1), kWeights);
  add_mixed_fleet(network);
  network.run(1000);
  network.run(1000);
  EXPECT_EQ(
      network.metrics_registry().snapshot().counter_value("sim.run.slots"),
      2000);
}

}  // namespace
}  // namespace pcn::sim
