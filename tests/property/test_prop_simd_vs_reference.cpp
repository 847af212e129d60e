// Property suite: engine equivalence over the scenario space.  For any
// canonical distance-update scenario (q, c, d, m) in either geometry and
// under either slot semantics, the SIMD fast path must reproduce the
// reference polymorphic engine's per-terminal metrics *bit-identically* —
// integer counters, signalling bytes, floating-point costs and both
// histograms — at 1 thread and through the sharded path, on every kernel
// path this machine runs.  The tier-1 suite (tests/sim/
// test_engine_identity.cpp) pins a fixed fleet; this sweep hunts the
// parameter corners (d = 0, m = 1, rates near the chain-semantics
// boundary, halfword threshold ties) where a table-building or
// draw-mapping bug would hide.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/fleet.hpp"
#include "support/isa_env.hpp"
#include "support/property.hpp"

namespace pcn::proptest {
namespace {

constexpr int kTerminals = 6;
constexpr std::int64_t kSlots = 15000;

std::optional<std::string> check_engines_agree(const Scenario& scenario) {
  for (const sim::SlotSemantics semantics :
       {sim::SlotSemantics::kChainFaithful,
        sim::SlotSemantics::kIndependent}) {
    const std::vector<sim::TerminalMetrics> reference =
        run_distance_fleet(scenario, semantics, 1, kTerminals, kSlots,
                           sim::SimEngine::kReference);
    for (const char* isa : simd_isa_modes()) {
      const ScopedIsaEnv env(isa);
      for (const int threads : {1, 4}) {
        const std::vector<sim::TerminalMetrics> simd =
            run_distance_fleet(scenario, semantics, threads, kTerminals,
                               kSlots, sim::SimEngine::kSimd);
        for (int i = 0; i < kTerminals; ++i) {
          const auto index = static_cast<std::size_t>(i);
          if (!metrics_identical(reference[index], simd[index])) {
            return std::optional<std::string>(
                "terminal " + std::to_string(i) + " diverged (" +
                (semantics == sim::SlotSemantics::kChainFaithful
                     ? "chain-faithful"
                     : "independent") +
                ", " + std::string(isa) + ", " + std::to_string(threads) +
                " threads)");
          }
        }
      }
    }
  }
  return std::nullopt;
}

TEST(PropSimdVsReference, BitIdenticalMetricsAcrossTheScenarioSpace) {
  check_property("simd-vs-reference/bit-identical", check_engines_agree);
}

}  // namespace
}  // namespace pcn::proptest
