// Closed-loop load generator (daemon/load_gen.cpp): the slot-draw
// contract at its edges (p = 1 fires every slot), the walk checked
// against the paper's Markov chain, and bit-identity of a whole 2x-
// overload Pcnd run across kernel ISAs and thread counts.
#include "pcn/daemon/load_gen.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "pcn/daemon/daemon.hpp"
#include "pcn/geometry/cell.hpp"
#include "pcn/markov/chain_spec.hpp"
#include "pcn/obs/trace_export.hpp"
#include "support/isa_env.hpp"
#include "support/oracles.hpp"

namespace pcn::daemon {
namespace {

// p = 1 is the 2^32 threshold, which takes the portable kernel: every
// slot, every terminal moves (and with d = 1 reports it), and every idle
// terminal pages.
TEST(LoadGen, AlwaysMoveAndCallFireEverySlot) {
  for (const Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    SCOPED_TRACE(dim == Dimension::kOneD ? "1-D" : "2-D");
    PcndConfig config;
    config.queue.max_pending = 4;
    config.queue.lifetime_slots = 3;
    Pcnd daemon(config);
    ClosedLoopConfig load;
    load.terminals = 203;  // not a multiple of the 16 shards or 8 lanes
    load.region = 5;
    load.move_prob = 1.0;
    load.call_prob = 1.0;
    load.threshold = 1;
    load.dimension = dim;
    ClosedLoopWorkload workload(load);
    const auto terminals = static_cast<std::int64_t>(load.terminals);
    for (int slot = 0; slot < 40; ++slot) {
      const std::int64_t idle = terminals - workload.outstanding_count();
      const std::int64_t pages = workload.pages_submitted();
      const std::int64_t updates = workload.updates_sent();
      daemon.run_slots(1, &workload);
      EXPECT_EQ(workload.pages_submitted() - pages, idle) << "slot " << slot;
      EXPECT_EQ(workload.updates_sent() - updates, terminals)
          << "slot " << slot;
    }
    // The queues are tiny, so most pages stay in flight for a while:
    // the idle count above was a real constraint, not always everyone.
    EXPECT_GT(workload.outcomes_dropped(), 0);
  }
}

// With q = 1 and d = 1 every slot's move is reported, so the daemon's
// center for a terminal must step to a torus neighbor every slot, starting
// from its registration cell.
TEST(LoadGen, ReportedCellsFollowTheWalk) {
  for (const Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    SCOPED_TRACE(dim == Dimension::kOneD ? "1-D" : "2-D");
    PcndConfig config;
    config.dimension = dim;
    Pcnd daemon(config);
    ClosedLoopConfig load;
    load.terminals = 50;
    load.region = 7;
    load.move_prob = 1.0;
    load.call_prob = 0.0;
    load.threshold = 1;
    load.dimension = dim;
    ClosedLoopWorkload workload(load);
    const std::int64_t region = load.region;
    daemon.run_slots(1, &workload);
    std::vector<geometry::Cell> before;
    for (std::uint64_t t = 0; t < load.terminals; ++t) {
      const auto id = static_cast<std::int64_t>(t);
      const geometry::Cell registered{
          id % region, dim == Dimension::kOneD ? 0 : (id / region) % region};
      EXPECT_EQ(daemon.terminal_info(t).center, registered) << "terminal "
                                                            << t;
      before.push_back(registered);
    }
    // The step on the torus, unwrapped to the representative nearest 0.
    const auto unwrap = [&](std::int64_t delta) {
      delta = ((delta % region) + region) % region;
      return delta > region / 2 ? delta - region : delta;
    };
    for (int slot = 1; slot < 30; ++slot) {
      daemon.run_slots(1, &workload);
      for (std::uint64_t t = 0; t < load.terminals; ++t) {
        const geometry::Cell after = daemon.terminal_info(t).center;
        const geometry::Cell step{unwrap(after.q - before[t].q),
                                  unwrap(after.r - before[t].r)};
        EXPECT_EQ(geometry::cell_distance(dim, step, geometry::Cell{}), 1)
            << "terminal " << t << " slot " << slot;
        before[t] = after;
      }
    }
  }
}

struct OracleScenario {
  Dimension dim;
  double q;
  int d;
};

// The walk between updates is the chain with threshold d - 1 (its outward
// move from ring d - 1 is the update).  Pages leave the walk alone, so
// the chain is the call-free one.  Updates per registered terminal-slot
// must match pi_{d-1} * up(d - 1), and pages per idle terminal-slot c.
TEST(LoadGenChainOracle, UpdateAndPageRatesMatchTheChain) {
  constexpr std::uint64_t kTerminals = 1000;
  constexpr std::int64_t kWarmupSlots = 300;
  constexpr std::int64_t kSlots = 1200;
  constexpr double kCallProb = 0.02;
  constexpr double kZ = 4.0;
  const std::vector<OracleScenario> scenarios = {
      {Dimension::kOneD, 0.05, 1}, {Dimension::kOneD, 0.05, 3},
      {Dimension::kOneD, 0.2, 1},  {Dimension::kOneD, 0.2, 3},
      {Dimension::kTwoD, 0.05, 1}, {Dimension::kTwoD, 0.05, 3},
      {Dimension::kTwoD, 0.2, 1},  {Dimension::kTwoD, 0.2, 3},
  };
  for (const OracleScenario& scenario : scenarios) {
    SCOPED_TRACE(::testing::Message()
                 << (scenario.dim == Dimension::kOneD ? "1-D" : "2-D")
                 << " q=" << scenario.q << " d=" << scenario.d);
    PcndConfig config;
    config.dimension = scenario.dim;
    Pcnd daemon(config);
    ClosedLoopConfig load;
    load.seed = 77;
    load.terminals = kTerminals;
    load.region = 8;
    load.move_prob = scenario.q;
    load.call_prob = kCallProb;
    load.threshold = scenario.d;
    load.dimension = scenario.dim;
    ClosedLoopWorkload workload(load);
    daemon.run_slots(kWarmupSlots, &workload);

    const std::int64_t updates_before = workload.updates_sent();
    const std::int64_t pages_before = workload.pages_submitted();
    std::int64_t idle_slots = 0;
    for (std::int64_t slot = 0; slot < kSlots; ++slot) {
      idle_slots +=
          static_cast<std::int64_t>(kTerminals) - workload.outstanding_count();
      daemon.run_slots(1, &workload);
    }
    const std::int64_t terminal_slots =
        static_cast<std::int64_t>(kTerminals) * kSlots;
    const double update_rate =
        static_cast<double>(workload.updates_sent() - updates_before) /
        static_cast<double>(terminal_slots);
    const double page_rate =
        static_cast<double>(workload.pages_submitted() - pages_before) /
        static_cast<double>(idle_slots);

    const markov::ChainSpec spec =
        markov::ChainSpec::exact(scenario.dim, {scenario.q, 0.0});
    proptest::Band update_band = proptest::update_rate_band(
        spec, scenario.d - 1, terminal_slots, kZ);
    if (scenario.dim == Dimension::kTwoD && scenario.d > 1) {
      // The 2-D ring chain is an iso-distance approximation of the hex
      // walk (the slack of the simulator's chain suites); from ring 0
      // every move is outward, so d = 1 stays exact.
      update_band = update_band.widened(0.03 + 0.25 * scenario.q);
    }
    EXPECT_TRUE(update_band.contains(update_rate))
        << "updates/terminal-slot " << update_rate << " outside "
        << proptest::to_string(update_band);

    // Each idle slot's call draw is a fresh Bernoulli(c).
    const proptest::Band page_band{
        kCallProb, kZ * std::sqrt(kCallProb * (1.0 - kCallProb) /
                                  static_cast<double>(idle_slots))};
    EXPECT_TRUE(page_band.contains(page_rate))
        << "pages/idle terminal-slot " << page_rate << " outside "
        << proptest::to_string(page_band);
  }
}

/// A 2x-overload run collapsed into a comparable fingerprint: every
/// counter, the delay histogram, the flight trace and the workload
/// tallies.  The ISA is probed when the workload is built.
std::string overload_fingerprint(const char* isa, int threads) {
  const proptest::ScopedIsaEnv env(isa);
  PcndConfig config;
  config.threads = threads;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.queue.max_pending = 8;
  config.queue.lifetime_slots = 16;
  config.sla_delay_slots = 8;
  config.record_flight = true;
  config.flight_sample_every = 16;
  Pcnd daemon(config);
  ClosedLoopConfig load;
  load.seed = 2026;
  load.terminals = 3001;
  load.region = 8;
  load.move_prob = 0.2;
  load.call_prob = 2.0 * 64 / 3001.0;  // 2x the 64 cells' capacity
  load.threshold = 3;
  ClosedLoopWorkload workload(load);
  daemon.run_slots(120, &workload);

  std::string fingerprint;
  for (const auto& counter : daemon.metrics_registry().snapshot().counters) {
    if (counter.name == "daemon.run.wall_ns") continue;
    fingerprint += counter.name + "=" + std::to_string(counter.value) + "\n";
  }
  for (const std::int64_t count : daemon.delay_histogram()) {
    fingerprint += std::to_string(count) + ",";
  }
  fingerprint += "\n" + obs::to_trace_jsonl(
                            {}, daemon.flight_recorder()->merged());
  fingerprint += "submitted=" + std::to_string(workload.pages_submitted()) +
                 " updates=" + std::to_string(workload.updates_sent()) +
                 " outstanding=" +
                 std::to_string(workload.outstanding_count());
  return fingerprint;
}

TEST(LoadGenIdentity, OverloadRunIsBitIdenticalAcrossIsasAndThreads) {
  const std::string reference = overload_fingerprint("portable", 1);
  EXPECT_NE(reference.find("daemon.page.dropped"), std::string::npos);
  for (const char* isa : proptest::simd_isa_modes()) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << isa << ", " << threads
                                        << " threads");
      EXPECT_EQ(overload_fingerprint(isa, threads), reference);
    }
  }
  // The generator always runs: with every SIMD kernel disabled it takes
  // the portable path.
  EXPECT_EQ(overload_fingerprint("none", 4), reference);
}

}  // namespace
}  // namespace pcn::daemon
