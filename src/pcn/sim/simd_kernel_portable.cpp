// Portable scalar-emulation kernels for the SIMD slot-loop engine and the
// load generator's walk: the reference semantics of the lane arithmetic,
// built into every binary.  The AVX2 kernels (simd_kernel_avx2.cpp) must
// match them bit for bit.
#include "pcn/sim/simd_kernel.hpp"

#include "pcn/common/error.hpp"

namespace pcn::sim::simd_detail {
namespace {

template <bool kTwoD, bool kChain>
void run_block_impl(const KernelParams& kp, const LaneBlock& block, int n,
                    SimTime first, SimTime last) {
  for (SimTime t = first; t <= last; ++t) {
    for (int lane = 0; lane < n; ++lane) {
      lane_slot<kTwoD, kChain>(kp, block, lane, t);
    }
  }
}

/// One lane of walk_slot: the draw_slot decisions, the step, and the
/// event flags.
template <bool kTwoD>
std::uint32_t walk_lane(const WalkParams& p, std::int32_t& rel_q,
                        std::int32_t& rel_r, std::uint64_t stream,
                        SimTime t) {
  const SlotDraw draw =
      draw_slot(p.key, stream, t, /*chain=*/false, p.t_call, p.t_move);
  std::uint32_t flags = draw.called ? kWalkCalled : 0;
  if (draw.moved) {
    std::int32_t dist;
    if constexpr (kTwoD) {
      const auto dir = static_cast<std::size_t>(draw.direction.hex());
      rel_q += kDirQ[dir];
      rel_r += kDirR[dir];
      dist = (std::abs(rel_q) + std::abs(rel_r) + std::abs(rel_q + rel_r)) /
             2;
    } else {
      rel_q += draw.direction.line_step();
      dist = std::abs(rel_q);
    }
    if (dist >= p.update_at) flags |= kWalkUpdate;
  }
  return flags;
}

template <bool kTwoD>
std::size_t walk_impl(const WalkParams& p, const WalkLanes& lanes, SimTime t,
                      std::uint32_t* events) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < lanes.n; ++i) {
    const std::uint32_t flags =
        walk_lane<kTwoD>(p, lanes.rel_q[i], lanes.rel_r[i],
                         lanes.first + i * lanes.stride, t);
    if (flags != 0) {
      events[count++] = (static_cast<std::uint32_t>(i) << 2) | flags;
    }
  }
  return count;
}

}  // namespace

std::size_t walk_slot_portable(const WalkParams& p, const WalkLanes& lanes,
                               SimTime t, std::uint32_t* events) {
  PCN_ASSERT(lanes.n <= kWalkMaxLanes);
  return p.two_d ? walk_impl<true>(p, lanes, t, events)
                 : walk_impl<false>(p, lanes, t, events);
}

std::size_t walk_slot(const WalkParams& p, const WalkLanes& lanes, SimTime t,
                      std::uint32_t* events) {
#if PCN_HAVE_AVX2_KERNEL
  if (p.avx2) return walk_slot_avx2(p, lanes, t, events);
#endif
  return walk_slot_portable(p, lanes, t, events);
}

void run_block_portable(const KernelParams& kp, const LaneBlock& block,
                        int n, bool two_d, bool chain, SimTime first,
                        SimTime last) {
  if (two_d && chain) {
    run_block_impl<true, true>(kp, block, n, first, last);
  } else if (two_d) {
    run_block_impl<true, false>(kp, block, n, first, last);
  } else if (chain) {
    run_block_impl<false, true>(kp, block, n, first, last);
  } else {
    run_block_impl<false, false>(kp, block, n, first, last);
  }
}

}  // namespace pcn::sim::simd_detail
