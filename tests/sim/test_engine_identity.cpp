// Engine equivalence: the SIMD fast path (sim/simd_engine.cpp) must be
// bit-identical to the reference polymorphic slot loop — every
// TerminalMetrics field including floating-point costs and histograms,
// signalling byte counts, and the flight-recorder event stream — at any
// thread count, on both kernel paths (AVX2 and portable), for both
// geometries and both slot semantics.  Both engines draw through the one
// per-(terminal, slot) contract in sim/slot_draw.hpp.  Also covers engine
// selection: kAuto picks the fast path only for canonical fleets, kSimd
// rejects everything else with a diagnostic.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/obs/flight_recorder.hpp"
#include "pcn/sim/network.hpp"
#include "support/isa_env.hpp"

namespace pcn::sim {
namespace {

constexpr CostWeights kWeights{50.0, 2.0};
constexpr int kTerminals = 48;
constexpr std::int64_t kSlots = 6000;

using proptest::ScopedIsaEnv;
using proptest::simd_isa_modes;

NetworkConfig make_config(Dimension dim, SlotSemantics semantics,
                          SimEngine engine, int threads) {
  NetworkConfig config{dim, semantics, 4242};
  config.threads = threads;
  config.engine = engine;
  return config;
}

/// A canonical fleet sweeping (q, c, d, m) so every paging table shape and
/// every kernel specialization gets coverage.
std::vector<TerminalId> add_canonical_fleet(Network& network, Dimension dim,
                                            int terminals = kTerminals) {
  std::vector<TerminalId> ids;
  for (int i = 0; i < terminals; ++i) {
    const MobilityProfile profile{0.05 + 0.07 * (i % 5),
                                  0.01 + 0.02 * (i % 3)};
    ids.push_back(network.add_terminal(make_distance_terminal(
        dim, profile, 1 + i % 4, DelayBound(1 + i % 3))));
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
  // Bit-exact, not approximate: both engines set the costs from the
  // integer counts at the end of each run.
  EXPECT_EQ(a.update_cost, b.update_cost);
  EXPECT_EQ(a.paging_cost, b.paging_cost);
  expect_histograms_equal(a.paging_cycles, b.paging_cycles);
  expect_histograms_equal(a.ring_distance, b.ring_distance);
}

void expect_all_identical(const std::vector<TerminalMetrics>& a,
                          const std::vector<TerminalMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_metrics_identical(a[i], b[i], static_cast<TerminalId>(i));
  }
}

std::vector<TerminalMetrics> run_canonical(Dimension dim,
                                           SlotSemantics semantics,
                                           SimEngine engine, int threads,
                                           bool* simd_active = nullptr,
                                           bool count_bytes = true) {
  NetworkConfig config = make_config(dim, semantics, engine, threads);
  config.count_signalling_bytes = count_bytes;
  Network network(config, kWeights);
  const std::vector<TerminalId> ids = add_canonical_fleet(network, dim);
  network.run(kSlots);
  if (simd_active != nullptr) *simd_active = network.simd_active();
  std::vector<TerminalMetrics> metrics;
  for (TerminalId id : ids) metrics.push_back(network.metrics(id));
  return metrics;
}

TEST(EngineIdentity, BitIdenticalToReferenceAcrossDimsSemanticsAndThreads) {
  for (Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    for (SlotSemantics semantics :
         {SlotSemantics::kChainFaithful, SlotSemantics::kIndependent}) {
      for (bool bytes : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "dim=" << (dim == Dimension::kOneD ? 1 : 2)
                     << " chain="
                     << (semantics == SlotSemantics::kChainFaithful)
                     << " bytes=" << bytes);
        const std::vector<TerminalMetrics> reference = run_canonical(
            dim, semantics, SimEngine::kReference, 1, nullptr, bytes);
        for (const char* isa : simd_isa_modes()) {
          ScopedIsaEnv env(isa);
          for (int threads : {1, 4}) {
            SCOPED_TRACE(::testing::Message()
                         << "isa=" << isa << " threads=" << threads);
            bool active = false;
            const std::vector<TerminalMetrics> simd = run_canonical(
                dim, semantics, SimEngine::kSimd, threads, &active, bytes);
            EXPECT_TRUE(active);
            expect_all_identical(reference, simd);
          }
        }
      }
    }
  }
}

TEST(EngineIdentity, AutoSelectsSimdForCanonicalFleetOnly) {
  bool active = false;
  const std::vector<TerminalMetrics> auto_run = run_canonical(
      Dimension::kTwoD, SlotSemantics::kChainFaithful, SimEngine::kAuto, 4,
      &active);
  EXPECT_TRUE(active);
  const std::vector<TerminalMetrics> reference =
      run_canonical(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                    SimEngine::kReference, 4, &active);
  EXPECT_FALSE(active);
  expect_all_identical(reference, auto_run);
}

TEST(EngineIdentity, AutoFallsBackWhenFleetIsNotCanonical) {
  auto config = make_config(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                            SimEngine::kAuto, 2);
  Network network(config, kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 4);
  network.add_terminal(make_movement_terminal(
      Dimension::kTwoD, MobilityProfile{0.2, 0.05}, 3, DelayBound(2)));
  network.run(2000);  // must not throw
  EXPECT_FALSE(network.simd_active());
}

TEST(EngineIdentity, AutoFallsBackUnderLossInjection) {
  auto config = make_config(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                            SimEngine::kAuto, 1);
  config.update_loss_prob = 0.1;
  Network network(config, kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 4);
  network.run(2000);
  EXPECT_FALSE(network.simd_active());
}

TEST(EngineIdentity, AutoFallsBackWithoutKernels) {
  // PCN_SIMD_ISA=none disables every kernel: kAuto runs the reference
  // engine, with the same results.
  const std::vector<TerminalMetrics> simd = run_canonical(
      Dimension::kTwoD, SlotSemantics::kChainFaithful, SimEngine::kSimd, 1);
  ScopedIsaEnv env("none");
  bool active = true;
  const std::vector<TerminalMetrics> auto_run =
      run_canonical(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                    SimEngine::kAuto, 1, &active);
  EXPECT_FALSE(active);
  expect_all_identical(simd, auto_run);
}

TEST(EngineIdentity, CertainMovesFallBackToTheExactReferenceDraw) {
  // q = 1 under independent semantics needs a threshold of 2^32, which a
  // 32-bit kernel lane cannot hold: kAuto takes the reference engine
  // (every slot moves), forced kSimd reports why.
  auto make = [](SimEngine engine) {
    auto network = std::make_unique<Network>(
        make_config(Dimension::kTwoD, SlotSemantics::kIndependent, engine,
                    1),
        kWeights);
    TerminalSpec spec = make_distance_terminal(
        Dimension::kTwoD, MobilityProfile{1.0, 0.0}, 3, DelayBound(2));
    spec.call_prob = 0.01;  // independent semantics: q + c may exceed 1
    network->add_terminal(std::move(spec));
    return network;
  };
  const auto automatic = make(SimEngine::kAuto);
  automatic->run(5000);
  EXPECT_FALSE(automatic->simd_active());
  EXPECT_EQ(automatic->metrics(0).moves, 5000);
  const auto forced = make(SimEngine::kSimd);
  EXPECT_THROW(forced->run(10), InvalidArgument);
}

TEST(EngineIdentity, ForcedSimdRejectsNonCanonicalFleet) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, SimEngine::kSimd,
                              1),
                  kWeights);
  network.add_terminal(make_movement_terminal(
      Dimension::kTwoD, MobilityProfile{0.2, 0.05}, 3, DelayBound(2)));
  EXPECT_THROW(network.run(100), InvalidArgument);
}

TEST(EngineIdentity, ForcedSimdRejectsObserversAndLoss) {
  {
    Network network(make_config(Dimension::kTwoD,
                                SlotSemantics::kChainFaithful,
                                SimEngine::kSimd, 1),
                    kWeights);
    add_canonical_fleet(network, Dimension::kTwoD, 2);
    NetworkObserver observer;
    network.set_observer(&observer);
    EXPECT_THROW(network.run(100), InvalidArgument);
  }
  {
    auto config = make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, SimEngine::kSimd,
                              1);
    config.update_loss_prob = 0.1;
    Network network(config, kWeights);
    add_canonical_fleet(network, Dimension::kTwoD, 2);
    EXPECT_THROW(network.run(100), InvalidArgument);
  }
}

TEST(EngineIdentity, FlightRecordingIsBitIdenticalAcrossEngines) {
  auto record = [](SimEngine engine, int threads) {
    auto config = make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, engine, threads);
    config.record_flight = true;
    config.flight_sample_every = 2;
    Network network(config, kWeights);
    add_canonical_fleet(network, Dimension::kTwoD, 16);
    network.run(3000);
    EXPECT_EQ(network.simd_active(), engine == SimEngine::kSimd);
    EXPECT_EQ(network.flight_recorder()->dropped(), 0u);
    return network.flight_recorder()->merged();
  };
  const std::vector<obs::FlightEvent> reference =
      record(SimEngine::kReference, 1);
  ASSERT_FALSE(reference.empty());
  for (const char* isa : simd_isa_modes()) {
    ScopedIsaEnv env(isa);
    for (int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "isa=" << isa << " threads=" << threads);
      const std::vector<obs::FlightEvent> simd =
          record(SimEngine::kSimd, threads);
      ASSERT_EQ(reference.size(), simd.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_TRUE(reference[i] == simd[i]) << "event " << i;
      }
    }
  }
}

TEST(EngineIdentity, RuntimeStatsDoNotChangeSimdResults) {
  auto run = [](bool stats, int threads) {
    auto config = make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, SimEngine::kSimd,
                              threads);
    config.collect_runtime_stats = stats;
    Network network(config, kWeights);
    const std::vector<TerminalId> ids =
        add_canonical_fleet(network, Dimension::kTwoD);
    network.run(kSlots);
    std::vector<TerminalMetrics> metrics;
    for (TerminalId id : ids) metrics.push_back(network.metrics(id));
    if (stats) {
      // The rare path observes the sampled page histograms and the
      // batch sync keeps the event counters exact.
      std::int64_t calls = 0;
      for (const TerminalMetrics& m : metrics) calls += m.calls;
      const obs::MetricsSnapshot snapshot =
          network.metrics_registry().snapshot();
      EXPECT_EQ(snapshot.counter_value("sim.page.count"), calls);
      EXPECT_GT(snapshot.counter_value("sim.page.sampled"), 0);
      const obs::HistogramSample* cycles =
          snapshot.find_histogram("sim.page.cycles");
      EXPECT_NE(cycles, nullptr);
      if (cycles != nullptr) {
        EXPECT_EQ(cycles->count, snapshot.counter_value("sim.page.sampled"));
      }
    }
    return metrics;
  };
  const std::vector<TerminalMetrics> bare = run(false, 1);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    expect_all_identical(bare, run(true, threads));
  }
  expect_all_identical(
      bare, run_canonical(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                          SimEngine::kReference, 1));
}

TEST(EngineIdentity, UserEventsSplittingTheRunPreserveIdentity) {
  auto run_with_events = [](SimEngine engine) {
    Network network(make_config(Dimension::kTwoD,
                                SlotSemantics::kChainFaithful, engine, 4),
                    kWeights);
    const std::vector<TerminalId> ids =
        add_canonical_fleet(network, Dimension::kTwoD);
    // Events force segment boundaries, reference-engine event slots and
    // (for the SIMD engine) the mid-run revalidation path.
    for (SimTime at : {SimTime{1}, SimTime{1500}, SimTime{1501},
                       SimTime{kSlots - 1}}) {
      network.events().schedule(at, [] {});
    }
    network.run(kSlots);
    std::vector<TerminalMetrics> metrics;
    for (TerminalId id : ids) metrics.push_back(network.metrics(id));
    return metrics;
  };
  const std::vector<TerminalMetrics> simd =
      run_with_events(SimEngine::kSimd);
  // Reference run without events: segment chopping must be unobservable.
  const std::vector<TerminalMetrics> reference = run_canonical(
      Dimension::kTwoD, SlotSemantics::kChainFaithful,
      SimEngine::kReference, 1);
  expect_all_identical(reference, simd);
}

TEST(EngineIdentity, SplitRunsMatchOneShotRuns) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, SimEngine::kSimd,
                              4),
                  kWeights);
  const std::vector<TerminalId> ids =
      add_canonical_fleet(network, Dimension::kTwoD);
  network.run(kSlots / 4);
  network.run(kSlots / 4);
  network.run(kSlots / 2);
  const std::vector<TerminalMetrics> reference = run_canonical(
      Dimension::kTwoD, SlotSemantics::kChainFaithful,
      SimEngine::kReference, 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_metrics_identical(reference[i], network.metrics(ids[i]), ids[i]);
  }
}

TEST(EngineIdentity, ChainSemanticsStillRejectImpossibleProfiles) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, SimEngine::kSimd,
                              1),
                  kWeights);
  TerminalSpec bad = make_distance_terminal(
      Dimension::kTwoD, MobilityProfile{0.2, 0.05}, 2, DelayBound(2));
  bad.call_prob = 0.85;  // q + c > 1
  network.add_terminal(std::move(bad));
  EXPECT_THROW(network.run(100), InvalidArgument);
}

}  // namespace
}  // namespace pcn::sim
