// SIMD engine (sim/simd_engine.cpp): self-consistency and policy.  The
// engine must be bit-identical to itself across thread counts, runs,
// segmentation points and ISA paths (AVX2 vs portable) — and, through the
// shared draw contract, to the reference engine (test_engine_identity.cpp).
// kAuto picks it for canonical fleets; forced kSimd throws on
// non-canonical fleets and PCN_SIMD_ISA=none.
#include "pcn/sim/simd_engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/sim/network.hpp"
#include "support/isa_env.hpp"

namespace pcn::sim {
namespace {

constexpr CostWeights kWeights{50.0, 2.0};
constexpr int kTerminals = 48;
constexpr std::int64_t kSlots = 6000;

using proptest::ScopedIsaEnv;

NetworkConfig make_config(Dimension dim, SlotSemantics semantics,
                          SimEngine engine, int threads) {
  NetworkConfig config{dim, semantics, 4242};
  config.threads = threads;
  config.engine = engine;
  return config;
}

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
  // Bit-exact: costs are set from the integer counts at run end.
  EXPECT_EQ(a.update_cost, b.update_cost);
  EXPECT_EQ(a.paging_cost, b.paging_cost);
  expect_histograms_equal(a.paging_cycles, b.paging_cycles);
  expect_histograms_equal(a.ring_distance, b.ring_distance);
}

std::vector<TerminalMetrics> run_simd(Dimension dim, SlotSemantics semantics,
                                      int threads,
                                      std::int64_t slots = kSlots) {
  Network network(make_config(dim, semantics, SimEngine::kSimd, threads),
                  kWeights);
  const std::vector<TerminalId> ids = add_canonical_fleet(network, dim);
  network.run(slots);
  EXPECT_TRUE(network.simd_active());
  std::vector<TerminalMetrics> metrics;
  for (TerminalId id : ids) metrics.push_back(network.metrics(id));
  return metrics;
}

TEST(SimdEngine, BitIdenticalToItselfAcrossThreadCountsAndRuns) {
  for (Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    for (SlotSemantics semantics :
         {SlotSemantics::kChainFaithful, SlotSemantics::kIndependent}) {
      SCOPED_TRACE(::testing::Message()
                   << "dim=" << (dim == Dimension::kOneD ? 1 : 2)
                   << " chain="
                   << (semantics == SlotSemantics::kChainFaithful));
      const std::vector<TerminalMetrics> base =
          run_simd(dim, semantics, 1);
      const std::vector<TerminalMetrics> rerun =
          run_simd(dim, semantics, 1);
      const std::vector<TerminalMetrics> sharded =
          run_simd(dim, semantics, 4);
      ASSERT_EQ(base.size(), sharded.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        expect_metrics_identical(base[i], rerun[i],
                                 static_cast<TerminalId>(i));
        expect_metrics_identical(base[i], sharded[i],
                                 static_cast<TerminalId>(i));
      }
    }
  }
}

TEST(SimdEngine, SegmentationPointsDoNotChangeResults) {
  // Draws are keyed on the absolute slot, so splitting a run into
  // segments (the state sync/reload path between user events) is
  // invisible: run(a); run(b) == run(a + b).
  Network whole(make_config(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                            SimEngine::kSimd, 1),
                kWeights);
  Network split(make_config(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                            SimEngine::kSimd, 1),
                kWeights);
  const std::vector<TerminalId> ids =
      add_canonical_fleet(whole, Dimension::kTwoD);
  add_canonical_fleet(split, Dimension::kTwoD);
  whole.run(kSlots);
  split.run(kSlots / 3);
  split.run(kSlots - kSlots / 3);
  for (TerminalId id : ids) {
    expect_metrics_identical(whole.metrics(id), split.metrics(id), id);
  }
}

TEST(SimdEngine, PortableKernelMatchesAvx2BitForBit) {
  {
    ScopedIsaEnv detect(nullptr);
    if (simd_support().isa != SimdIsa::kAvx2) {
      GTEST_SKIP() << "AVX2 kernel not available on this machine";
    }
  }
  for (Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    for (SlotSemantics semantics :
         {SlotSemantics::kChainFaithful, SlotSemantics::kIndependent}) {
      SCOPED_TRACE(::testing::Message()
                   << "dim=" << (dim == Dimension::kOneD ? 1 : 2)
                   << " chain="
                   << (semantics == SlotSemantics::kChainFaithful));
      std::vector<TerminalMetrics> avx2;
      std::vector<TerminalMetrics> portable;
      {
        ScopedIsaEnv env("avx2");
        avx2 = run_simd(dim, semantics, 1);
      }
      {
        ScopedIsaEnv env("portable");
        portable = run_simd(dim, semantics, 1);
      }
      ASSERT_EQ(avx2.size(), portable.size());
      for (std::size_t i = 0; i < avx2.size(); ++i) {
        expect_metrics_identical(avx2[i], portable[i],
                                 static_cast<TerminalId>(i));
      }
    }
  }
}

TEST(SimdEngine, ReportsActiveIsaName) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 8);
  network.run(100);
  ASSERT_TRUE(network.simd_active());
  const std::string isa = network.simd_isa_name();
  EXPECT_TRUE(isa == "avx2" || isa == "portable") << isa;
}

TEST(SimdEngine, RejectsNonCanonicalFleet) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  network.add_terminal(make_time_terminal(
      Dimension::kTwoD, MobilityProfile{0.1, 0.01}, 50));
  EXPECT_THROW(network.run(100), InvalidArgument);
}

TEST(SimdEngine, IsaNoneDisablesTheEngine) {
  ScopedIsaEnv env("none");
  const SimdSupport support = simd_support();
  EXPECT_FALSE(support.available);
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 8);
  try {
    network.run(100);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("PCN_SIMD_ISA=none"),
              std::string::npos)
        << error.what();
  }
}

TEST(SimdEngine, ForcedAvx2UnavailableIsAnError) {
  // Simulate unsupported hardware by disabling the kernels, then forcing
  // avx2: prepare must fail with a diagnostic rather than fall back.
#if PCN_HAVE_AVX2_KERNEL
  ScopedIsaEnv detect(nullptr);
  if (simd_support().isa == SimdIsa::kAvx2) {
    GTEST_SKIP() << "AVX2 available here; the unavailable path needs a "
                    "machine or build without it (portable CI leg)";
  }
#endif
  ScopedIsaEnv env("avx2");
  const SimdSupport support = simd_support();
  EXPECT_FALSE(support.available);
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 8);
  EXPECT_THROW(network.run(100), InvalidArgument);
}

}  // namespace
}  // namespace pcn::sim
