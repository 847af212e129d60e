// SIMD engine (sim/simd_engine.cpp): self-consistency and policy.  The
// engine must be bit-identical to itself across thread counts, runs,
// segmentation points and ISA paths (AVX2 vs portable) — and, through the
// shared draw contract, to the reference engine (test_engine_identity.cpp).
// kAuto picks it for canonical fleets; forced kSimd throws on
// non-canonical fleets and PCN_SIMD_ISA=none.  The load generator's batch
// walk (walk_slot) must equal draw_slot lane for lane on every ISA.
#include "pcn/sim/simd_engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/geometry/hex.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/sim/simd_kernel.hpp"
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


// --- walk_slot: the load generator's batch walk -----------------------------

struct WalkCase {
  bool two_d;
  std::uint64_t first;
  std::uint64_t stride;
  std::size_t n;
  double q;
  double c;
};

/// walk_slot's contract restated lane by lane with draw_slot and the
/// geometry module: one slot of every lane, resetting the offsets of the
/// lanes that report.
std::vector<std::uint32_t> reference_walk(const simd_detail::WalkParams& p,
                                          const WalkCase& wc,
                                          std::vector<std::int32_t>& rel_q,
                                          std::vector<std::int32_t>& rel_r,
                                          SimTime t) {
  std::vector<std::uint32_t> events;
  for (std::size_t i = 0; i < wc.n; ++i) {
    const SlotDraw draw = draw_slot(p.key, wc.first + i * wc.stride, t,
                                    /*chain=*/false, p.t_call, p.t_move);
    std::uint32_t flags = draw.called ? simd_detail::kWalkCalled : 0;
    if (draw.moved) {
      geometry::Cell cell{rel_q[i], rel_r[i]};
      std::int64_t dist;
      if (wc.two_d) {
        cell = geometry::hex_add(
            cell, geometry::hex_directions()[static_cast<std::size_t>(
                      draw.direction.hex())]);
        dist = geometry::hex_distance(cell, geometry::Cell{});
      } else {
        cell.q += draw.direction.line_step();
        dist = cell.q < 0 ? -cell.q : cell.q;
      }
      rel_q[i] = static_cast<std::int32_t>(cell.q);
      rel_r[i] = static_cast<std::int32_t>(cell.r);
      if (dist >= p.update_at) flags |= simd_detail::kWalkUpdate;
    }
    if (flags != 0) {
      events.push_back((static_cast<std::uint32_t>(i) << 2) | flags);
    }
  }
  return events;
}

/// Runs `wc` for `slots` slots through walk_slot (AVX2 when `avx2`) and
/// through reference_walk, comparing offsets and events every slot.
void expect_walk_matches_reference(const WalkCase& wc, bool avx2) {
  simd_detail::WalkParams p;
  p.key = SlotKey::from_seed(99);
  p.t_move = slot_threshold(wc.q);
  p.t_call = slot_threshold(wc.c);
  p.update_at = 3;
  p.two_d = wc.two_d;
  p.avx2 = avx2;
  std::vector<std::int32_t> q(wc.n, 0);
  std::vector<std::int32_t> r(wc.n, 0);
  std::vector<std::int32_t> ref_q(wc.n, 0);
  std::vector<std::int32_t> ref_r(wc.n, 0);
  std::vector<std::uint32_t> events;
  for (SimTime t = 0; t < 64; ++t) {
    const simd_detail::WalkLanes lanes{q.data(), r.data(), wc.first,
                                       wc.stride, wc.n};
    events.resize(wc.n);
    events.resize(simd_detail::walk_slot(p, lanes, t, events.data()));
    ASSERT_EQ(events, reference_walk(p, wc, ref_q, ref_r, t))
        << "slot " << t;
    ASSERT_EQ(q, ref_q) << "slot " << t;
    ASSERT_EQ(r, ref_r) << "slot " << t;
    for (const std::uint32_t event : events) {
      if ((event & simd_detail::kWalkUpdate) != 0) {
        q[event >> 2] = r[event >> 2] = 0;
        ref_q[event >> 2] = ref_r[event >> 2] = 0;
      }
    }
  }
}

TEST(WalkSlot, MatchesDrawSlotLaneForLane) {
  bool have_avx2 = false;
  {
    ScopedIsaEnv detect(nullptr);
    have_avx2 = simd_support().isa == SimdIsa::kAvx2;
  }
  const std::uint64_t near_2_32 = (std::uint64_t{1} << 32) - 21;
  const std::vector<WalkCase> cases = {
      {true, 0, 1, 64, 0.3, 0.05},          // whole blocks
      {true, 5, 16, 67, 0.3, 0.05},         // shard stride, tail of 3
      {false, 3, 7, 13, 0.4, 0.1},          // 1-D, tail of 5
      {true, 0, 1, 5, 0.5, 0.2},            // tail only
      {true, near_2_32, 3, 40, 0.3, 0.05},  // streams cross 2^32
      {false, (std::uint64_t{1} << 40) + 9, std::uint64_t{1} << 33, 21, 0.3,
       0.05},                               // high words in the stride
      {true, 2, 16, 30, 0.0, 0.0},          // p = 0: nothing fires
      {true, 2, 16, 30, 1.0, 1.0},          // p = 1: everything fires
      {false, 2, 16, 30, 1.0, 0.0},
  };
  for (const WalkCase& wc : cases) {
    SCOPED_TRACE(::testing::Message()
                 << (wc.two_d ? "2-D" : "1-D") << " first=" << wc.first
                 << " stride=" << wc.stride << " n=" << wc.n << " q=" << wc.q
                 << " c=" << wc.c);
    expect_walk_matches_reference(wc, /*avx2=*/false);
    // 2^32 thresholds do not fit an AVX2 lane; they always run portable.
    if (have_avx2 && wc.q < 1.0 && wc.c < 1.0) {
      SCOPED_TRACE("avx2");
      expect_walk_matches_reference(wc, /*avx2=*/true);
    }
  }
}

}  // namespace
}  // namespace pcn::sim
