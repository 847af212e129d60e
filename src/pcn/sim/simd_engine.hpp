// Lane-parallel SIMD fast path for the canonical distance-update scenario.
//
// Eligibility comes from the shared FleetPlan (fleet_plan.hpp).  Every
// (terminal, slot) pair draws through the counter-based contract of
// slot_draw.hpp, so each slot is a pure function of (key, terminal,
// slot) with no loop-carried RNG state: eight terminals evolve per
// instruction in the AVX2 kernel, with a portable scalar kernel as the
// universal fallback.  Terminals are processed in cache-blocked batches
// (kBatchLanes in simd_engine.cpp) sliced into 8-lane kernel blocks.
//
// Equivalence contract: the reference engine draws through the same
// contract, so TerminalMetrics, signalling-byte counts and flight
// recordings are bit-identical to it at every thread count and on every
// ISA path (tests/sim/test_engine_identity.cpp, test_simd_engine.cpp).
// Telemetry keeps every event counter exact (folded in at batch sync);
// the 1-in-N sampled page detail (net.page span, sim.page.cycles,
// sim.page.polled_per_call) and flight recording hang off the kernels'
// scalar rare path.
//
// prepare() rejects (and forced kSimd reports via InvalidArgument):
//   * a non-canonical fleet, or event thresholds that round to 1 in
//     32-bit fixed point (the reference engine decides those exactly);
//   * PCN_SIMD_ISA=none — every kernel disabled (test hook).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pcn/sim/fleet_plan.hpp"
#include "pcn/sim/network.hpp"

namespace pcn::sim {

/// Kernel instruction-set paths, in preference order.
enum class SimdIsa { kAvx2, kPortable };

const char* to_string(SimdIsa isa);

/// Result of probing kernel availability on this machine.
struct SimdSupport {
  bool available = false;
  SimdIsa isa = SimdIsa::kPortable;
  /// Why no kernel is available (static string); meaningful when
  /// !available.
  const char* reason = "";
};

/// Probes which kernel the simd engine would run: AVX2 when compiled in
/// (PCN_SIMD_AVX2) and reported by cpuid, else the portable kernel.  The
/// PCN_SIMD_ISA environment variable overrides the choice — "avx2"
/// (require it), "portable" (force the fallback), "none" (disable every
/// kernel; makes the unsupported-hardware error path testable anywhere),
/// "auto"/unset/unknown (detect).
SimdSupport simd_support();

class SimdEngine {
 public:
  /// The engine borrows the network; `net` must outlive it.
  explicit SimdEngine(Network& net);

  /// Probes kernel support, verifies the fleet is canonical (FleetPlan),
  /// and (re)builds the flat per-terminal plan and the fixed-point event
  /// thresholds.  Returns false with the first offending condition in
  /// `*why` when the engine cannot run.
  bool prepare(std::string* why);

  /// Runs the event-free slot range [first, last] over every terminal in
  /// cache-blocked batches, fanning batches across shard workers when
  /// `use_workers`.
  void run_segment(SimTime first, SimTime last, Network::Scratch& scratch,
                   bool use_workers);

  /// Flat engine state per terminal, in bytes (static plan + hot lane
  /// arrays) — the bench/perf_scale memory-footprint metric.
  std::size_t bytes_per_terminal() const;

  /// The kernel path selected by the last successful prepare().
  SimdIsa isa() const { return isa_; }

 private:
  /// Worker body: evolves attachments [begin, end) over [first, last] in
  /// kBatchLanes-sized batches of 8-lane kernel blocks.
  void run_shard(std::size_t begin, std::size_t end, SimTime first,
                 SimTime last, Network::Scratch& scratch);

  /// One cache-blocked batch: objects -> lane scratch, kernel blocks over
  /// the full slot range, lane scratch -> objects + metrics.
  void run_batch(std::size_t begin, std::size_t end, SimTime first,
                 SimTime last, Network::Scratch& scratch);

  Network& net_;
  SimdIsa isa_ = SimdIsa::kPortable;

  /// Static per-terminal plan + interned paging tables (fleet_plan.hpp).
  FleetPlan plan_;

  // ---- static lane arrays, rebuilt by prepare() (indexed by attachment
  // order; kernels alias them at the block offset) ----
  std::vector<std::uint32_t> t_call_, t_move_;  ///< fixed-point thresholds
  std::vector<std::uint32_t> tid_lo_, tid_hi_;  ///< Philox stream words
  std::vector<const PagingTable*> table_;       ///< resolved table pointer
};

}  // namespace pcn::sim
