// Kernel ABI for the lane-parallel SIMD slot-loop engine.
//
// The engine (simd_engine.cpp) slices each cache-blocked terminal batch
// into 8-lane blocks and hands every block to one of two kernels over an
// event-free slot range:
//
//   * run_block_portable — straight-line scalar integer code, built into
//     every binary; also serves partial (< 8 lane) tail blocks.
//   * run_block_avx2     — the same arithmetic eight lanes per
//     instruction, compiled into its own TU with -mavx2 and dispatched
//     only when cpuid reports AVX2 (simd_engine.cpp).
//
// Both kernels draw through the per-(terminal, slot) contract in
// slot_draw.hpp — the portable kernel calls draw_slot itself, the AVX2
// kernels replicate it lane-wise — and both funnel rare events (location
// updates, calls) through the shared scalar rare_slot below.  The
// reference engine (network.cpp) draws through the same contract, so
// every kernel is bit-identical to it (tests/sim/test_engine_identity.cpp
// and test_simd_engine.cpp compare them directly): the ISA and the thread
// count are invisible in the results.
//
// The kernels are pure integer; they never see the Network.  Flight
// recording and the sampled per-page telemetry hang off rare_slot through
// an optional RareSink, defined out of line in simd_engine.cpp.
//
// A second entry point, walk_slot, serves the daemon's closed-loop load
// generator (daemon/load_gen.cpp): one slot of a shard's walk under the
// independent draw semantics, with the same portable / AVX2 split and the
// same bit-identity between them (tests/sim/test_simd_engine.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "pcn/sim/event_queue.hpp"
#include "pcn/sim/fleet_plan.hpp"
#include "pcn/sim/slot_draw.hpp"

namespace pcn::sim::simd_detail {

inline constexpr int kLanes = 8;

/// Flight recorder and sampled page telemetry of one worker shard; see
/// simd_engine.cpp.
struct RareSink;

struct KernelParams {
  SlotKey key;  ///< the network's slot-draw key
  bool count_bytes = true;
  /// Null unless flight recording or runtime stats are on.
  RareSink* sink = nullptr;
};

/// Pointers into one 8-lane block of the batch arrays.  Static plan
/// pointers alias the engine's per-terminal arrays at the block offset;
/// dynamic state and accumulators live in the batch scratch.
struct LaneBlock {
  // Hot vector state (int32 lanes).
  std::int32_t* rel_q;            ///< position relative to the center
  std::int32_t* rel_r;
  const std::uint32_t* t_call;    ///< fixed-point event thresholds
  const std::uint32_t* t_move;
  const std::int32_t* thr;        ///< distance threshold d
  const std::uint32_t* tid_lo;    ///< Philox stream words (terminal id)
  const std::uint32_t* tid_hi;
  std::uint64_t stream(int lane) const {
    return tid_lo[lane] | (std::uint64_t{tid_hi[lane]} << 32);
  }
  // Cold per-lane state (rare path only).
  std::int64_t* cen_q;            ///< absolute knowledge center
  std::int64_t* cen_r;
  std::int64_t* since;            ///< last center reset slot
  std::uint64_t* page_id;         ///< per-terminal page correlator
  std::uint8_t* dirty;            ///< center reset during the segment
  // Per-lane accumulators.
  std::int64_t* moves;            ///< segment delta
  std::int64_t* updates;          ///< absolute ordinal (continues metrics)
  std::int64_t* calls;            ///< segment delta
  std::int64_t* polled;           ///< segment delta (cells)
  std::int64_t* upd_bytes;        ///< segment delta
  std::int64_t* page_bytes;       ///< segment delta
  // Per-lane plan constants and histogram rows.
  const PagingTable* const* table;
  const std::int32_t* id_bytes;
  const std::int32_t* upd_const;
  const std::int32_t* resp_const;
  std::int64_t* rd_rows;          ///< [lane][rd_stride] occupancy counts
  std::int64_t* pc_rows;          ///< [lane][pc_stride] paging cycles
  std::int32_t rd_stride = 0;
  std::int32_t pc_stride = 0;
};

/// Axial unit directions in hex_directions() order (entries 6–7 pad the
/// table to a full 8-lane permute; the direction draw is always < 6).
inline constexpr std::int32_t kDirQ[8] = {1, 1, 0, -1, -1, 0, 0, 0};
inline constexpr std::int32_t kDirR[8] = {0, -1, -1, 0, 1, 1, 0, 0};

/// Sink hooks.  sink_update runs before the update counter moves (the
/// pre-increment ordinal samples the update).  sink_page_begin opens a
/// call's page — the serialized TSC when the page is sampled for
/// telemetry, else 0 — and sink_call closes it after the paging.  `seq`
/// numbers the flight events of the (terminal, slot).
void sink_update(RareSink& sink, const LaneBlock& b, int lane, SimTime t,
                 std::int64_t dist, std::uint32_t& seq);
std::uint64_t sink_page_begin(RareSink& sink);
void sink_call(RareSink& sink, const LaneBlock& b, int lane, SimTime t,
               std::uint64_t call_id, std::int64_t dist, std::size_t h,
               std::uint64_t page_start, std::uint32_t& seq);

/// Scalar rare-event tail for one lane at slot `t`: the location update
/// (dist > threshold) and/or the call.  `dist` is the post-move ring
/// distance; both events reset the relative position, so the slot's
/// occupancy sample is 0 whenever this runs (the caller files it).
/// Shared verbatim by both kernels — the bit-identity anchor.
inline void rare_slot(const KernelParams& kp, const LaneBlock& b, int lane,
                      SimTime t, bool called, std::int64_t dist) {
  using plan_detail::signed_len;
  using plan_detail::varint_len;
  std::uint32_t seq = 0;
  if (dist > b.thr[lane]) {
    if (kp.sink != nullptr) sink_update(*kp.sink, b, lane, t, dist, seq);
    b.cen_q[lane] += b.rel_q[lane];
    b.cen_r[lane] += b.rel_r[lane];
    b.rel_q[lane] = 0;
    b.rel_r[lane] = 0;
    ++b.updates[lane];
    if (kp.count_bytes) {
      // Sequence number is the post-increment update ordinal, as in the
      // reference frame encoding; position equals the fresh center.
      b.upd_bytes[lane] +=
          b.upd_const[lane] +
          varint_len(static_cast<std::uint64_t>(b.updates[lane])) +
          signed_len(b.cen_q[lane]) + signed_len(b.cen_r[lane]);
    }
    b.since[lane] = t;
    b.dirty[lane] = 1;
    dist = 0;
  }
  if (called) {
    const std::uint64_t page_start =
        kp.sink != nullptr ? sink_page_begin(*kp.sink) : 0;
    const std::uint64_t call_id = b.page_id[lane]++;
    const PagingTable& tab = *b.table[lane];
    // The containment invariant puts the terminal in the subarea of its
    // current ring: poll every cycle up to (and including) it.
    const auto h = static_cast<std::size_t>(
        tab.cycle_of[static_cast<std::size_t>(dist)]);
    b.polled[lane] += tab.cum[h];
    const std::int64_t cq = b.cen_q[lane];
    const std::int64_t cr = b.cen_r[lane];
    const std::int64_t pq = cq + b.rel_q[lane];
    const std::int64_t pr = cr + b.rel_r[lane];
    if (kp.count_bytes) {
      for (std::size_t j = 0; j <= h; ++j) {
        b.page_bytes[lane] += tab.inv_bytes[j] +
                              varint_len(call_id) + b.id_bytes[lane] +
                              signed_len(cq + tab.off_q[j]) +
                              signed_len(cr + tab.off_r[j]);
      }
      b.page_bytes[lane] += b.resp_const[lane] + varint_len(call_id) +
                            signed_len(pq) + signed_len(pr);
    }
    b.pc_rows[lane * b.pc_stride + static_cast<std::int32_t>(h) + 1]++;
    ++b.calls[lane];
    if (kp.sink != nullptr) {
      sink_call(*kp.sink, b, lane, t, call_id, dist, h, page_start, seq);
    }
    b.cen_q[lane] = pq;
    b.cen_r[lane] = pr;
    b.rel_q[lane] = 0;
    b.rel_r[lane] = 0;
    b.since[lane] = t;
    b.dirty[lane] = 1;
  }
}

/// One lane-slot of the portable kernel: the slot_draw.hpp decisions,
/// then exactly the walk arithmetic the AVX2 lanes perform.
template <bool kTwoD, bool kChain>
inline void lane_slot(const KernelParams& kp, const LaneBlock& b, int lane,
                      SimTime t) {
  const SlotDraw draw = draw_slot(kp.key, b.stream(lane), t, kChain,
                                  b.t_call[lane], b.t_move[lane]);
  if (draw.moved) {
    if constexpr (kTwoD) {
      const auto dir = static_cast<std::size_t>(draw.direction.hex());
      b.rel_q[lane] += kDirQ[dir];
      b.rel_r[lane] += kDirR[dir];
    } else {
      b.rel_q[lane] += draw.direction.line_step();
    }
    ++b.moves[lane];
  }
  std::int64_t dist;
  if constexpr (kTwoD) {
    const std::int64_t dq = b.rel_q[lane];
    const std::int64_t dr = b.rel_r[lane];
    dist = (std::llabs(dq) + std::llabs(dr) + std::llabs(dq + dr)) / 2;
  } else {
    dist = std::llabs(std::int64_t{b.rel_q[lane]});
  }
  if (dist > b.thr[lane] || draw.called) {
    rare_slot(kp, b, lane, t, draw.called, dist);
    dist = 0;
  }
  b.rd_rows[lane * b.rd_stride + dist]++;
}

/// Runs lanes [0, n) of `block` over slots [first, last] with the scalar
/// emulation path (n <= kLanes; partial tail blocks take this path under
/// every ISA).
void run_block_portable(const KernelParams& kp, const LaneBlock& block,
                        int n, bool two_d, bool chain, SimTime first,
                        SimTime last);

// ---- Batch walk for the daemon's closed-loop load generator -------------
//
// One slot of a terminal shard's random walk under the *independent* slot
// semantics of slot_draw.hpp (move below t_move, call below t_call,
// direction from word 2).  Lane i is terminal stream first + i * stride,
// and its walk state is the offset from the terminal's last reported
// cell.  Common lanes only move; a lane whose move reached `update_at` or
// whose call draw fired leaves as an event for the caller's scalar code.

/// Event flags, ORed into the low bits of `(lane << 2)`.
inline constexpr std::uint32_t kWalkUpdate = 1;  ///< moved to update_at
inline constexpr std::uint32_t kWalkCalled = 2;  ///< the call draw fired
/// Lanes per walk_slot call (event words hold the lane in 30 bits).
inline constexpr std::size_t kWalkMaxLanes = std::size_t{1} << 30;

struct WalkParams {
  SlotKey key;
  std::uint64_t t_move = 0;    ///< slot_threshold(q)
  std::uint64_t t_call = 0;    ///< slot_threshold(c)
  std::int32_t update_at = 1;  ///< ring distance that triggers an update
  bool two_d = true;
  /// Run the AVX2 kernel.  Set only when simd_support() selected AVX2
  /// and both thresholds fit a 32-bit lane (p = 1 is 2^32).
  bool avx2 = false;
};

struct WalkLanes {
  std::int32_t* rel_q;  ///< offset from the last reported cell
  std::int32_t* rel_r;
  std::uint64_t first = 0;   ///< stream of lane 0
  std::uint64_t stride = 1;  ///< stream step between lanes
  std::size_t n = 0;
};

/// Moves every lane of `lanes` through slot `t` and writes one event
/// `(lane << 2) | flags` per lane with flags, in increasing lane order,
/// to `events` (room for lanes.n words); returns the event count.  The
/// offsets keep their post-move values: resetting them on an update is
/// the caller's job.  Dispatches on `p.avx2`.
std::size_t walk_slot(const WalkParams& p, const WalkLanes& lanes, SimTime t,
                      std::uint32_t* events);

/// walk_slot's scalar path, built into every binary.
std::size_t walk_slot_portable(const WalkParams& p, const WalkLanes& lanes,
                               SimTime t, std::uint32_t* events);

#if PCN_HAVE_AVX2_KERNEL
/// walk_slot eight lanes per instruction; the tail (n % 8 lanes) runs
/// walk_slot_portable.  Requires both thresholds below 2^32.
std::size_t walk_slot_avx2(const WalkParams& p, const WalkLanes& lanes,
                           SimTime t, std::uint32_t* events);
#endif

#if PCN_HAVE_AVX2_KERNEL
/// Runs all 8 lanes of `block` over slots [first, last] with AVX2.
void run_block_avx2(const KernelParams& kp, const LaneBlock& block,
                    bool two_d, bool chain, SimTime first, SimTime last);

/// Largest distance threshold the 16-lane paired chain kernel accepts:
/// its walk state and ring distances live in int16 lanes, and the hex
/// distance intermediate |dq| + |dr| + |dq + dr| is bounded by
/// 4 * (threshold + 1), which must stay below 2^15.
inline constexpr std::int32_t kPairMaxThreshold = 8190;

/// Runs TWO full 8-lane blocks over slots [first, last] as sixteen int16
/// lanes per vector — the chain-faithful fast path.  The event halfwords
/// and direction draws are 16-bit by construction (the quad mapping in
/// slot_draw.hpp), and every other per-slot quantity (relative position, ring
/// distance, per-chunk move/occupancy counts) fits int16 when every
/// threshold is <= kPairMaxThreshold — the caller's gate.  Bit-identical
/// to running the blocks through run_block_avx2 / run_block_portable.
void run_block_pair_avx2(const KernelParams& kp, const LaneBlock& a,
                         const LaneBlock& b, bool two_d, SimTime first,
                         SimTime last);
#endif

}  // namespace pcn::sim::simd_detail
