// The per-(terminal, slot) random-draw contract shared by every slot-loop
// engine.
//
// Each (terminal, slot) pair draws from a counter-based Philox4x32-10
// block (stats/counter_rng.hpp) keyed on the network seed: the stream
// words carry the terminal's attachment index, the counter words the
// slot.  A slot's decisions are therefore a pure function of (seed,
// terminal, slot) with no per-terminal generator state, which is what
// lets the reference engine (network.cpp) and the lane-parallel SIMD
// kernels (simd_kernel*.{hpp,cpp}) produce bit-identical metrics at any
// thread count, segmentation and instruction set.  This header is the one
// definition of the mapping from draws to decisions; the AVX2 kernels
// replicate it lane-wise and the engine tests hold them to it.
//
// Chain-faithful slots.  One event draw resolves the competing events
// (call below c, move below c + q) and one direction draw picks the
// neighbor.  16 bits cover each, so one block serves four slots: counter
// t >> 2, event halfwords in words 0–1 and direction halfwords in words
// 2–3 (slot t reads halfword t & 1 of word (t >> 1) & 1, and of 2 + that
// word).  The event halfword is compared against the high halves of the
// fixed-point thresholds; only on a tie (probability <= 2^-15) do the low
// 16 bits matter, and those come from a refinement block, reconstructing
// an exact uniform 32-bit draw.
//
// Independent slots.  Move, call and direction take full words 0, 1 and 2
// of one block per slot: counter t.
//
// Direction.  2-D walks step to hex_directions()[(d * 6) >> 16] for a
// chain halfword d, or [(w * 6) >> 32] for an independent word w — each
// neighbor within 2^-16 of 1/6.  1-D walks step +1 when the draw's low bit
// is set, −1 otherwise.
//
// Update loss (NetworkConfig::update_loss_prob) compares word 0 of a
// block in its own counter domain against the loss threshold.
//
// Counter domains: the slot blocks use counters below 2^62; refinement
// blocks set counter bit 63 and loss blocks bit 62, so no two purposes
// ever share a block.
#pragma once

#include <cstdint>

#include "pcn/sim/event_queue.hpp"
#include "pcn/stats/counter_rng.hpp"

namespace pcn::sim {

/// Salt ("pcn-simd") separating the slot-draw Philox key from every other
/// stream derived from the network seed (see stats::rng_detail::seed_from).
inline constexpr std::uint64_t kSimdKeySalt = 0x70636e2d73696d64ULL;

/// The Philox key every slot draw of one network uses.
struct SlotKey {
  std::uint32_t key0 = 0;
  std::uint32_t key1 = 0;

  static SlotKey from_seed(std::uint64_t seed) {
    const stats::CounterRng rng = stats::CounterRng::keyed(seed, kSimdKeySalt);
    return SlotKey{rng.key_lo(), rng.key_hi()};
  }
};

/// Fixed-point event threshold: a uniform 32-bit word x makes the event
/// happen when x < slot_threshold(p).  Exact at both ends: p <= 0 never
/// fires, and p >= 1 (2^32) always fires.  The SIMD kernels hold
/// thresholds in 32-bit lanes, so the engine takes only fleets whose
/// thresholds stay below 2^32.
inline std::uint64_t slot_threshold(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return std::uint64_t{1} << 32;
  // Round half up; p * 2^32 + 0.5 is exact below 2^52, so this equals
  // llround without its library call on the reference engine's hot path.
  return static_cast<std::uint64_t>(p * 4294967296.0 + 0.5);
}

/// A slot's direction draw: a 16-bit chain halfword or an independent
/// full word.  Mobility models map it to a neighbor (MobilityModel::
/// move_target).
struct DirectionDraw {
  std::uint32_t bits = 0;
  bool halfword = false;

  /// Index into geometry::hex_directions(), in [0, 6).
  int hex() const {
    return static_cast<int>(halfword
                                ? (bits * 6u) >> 16
                                : (std::uint64_t{bits} * 6) >> 32);
  }
  /// Step along the 1-D line: +1 or −1.
  int line_step() const { return static_cast<int>(bits & 1u) * 2 - 1; }
};

/// One (terminal, slot)'s decisions.
struct SlotDraw {
  bool called = false;
  bool moved = false;
  DirectionDraw direction;
};

namespace slot_draw {

inline constexpr std::uint32_t kRefineDomain = 0x80000000u;
inline constexpr std::uint32_t kLossDomain = 0x40000000u;

/// The Philox block at (`counter`, `stream`); `domain` ORs into the
/// counter's high word.
inline stats::PhiloxWords block(const SlotKey& key, std::uint64_t counter,
                                std::uint32_t domain, std::uint64_t stream) {
  return stats::philox4x32(key.key0, key.key1,
                           static_cast<std::uint32_t>(counter),
                           static_cast<std::uint32_t>(counter >> 32) | domain,
                           static_cast<std::uint32_t>(stream),
                           static_cast<std::uint32_t>(stream >> 32));
}

/// Chain slot t's halfword of the quad block: the event draw at `base` 0,
/// the direction draw at `base` 2.
inline std::uint32_t chain_half(const stats::PhiloxWords& w, int base,
                                SimTime t) {
  const auto word = static_cast<std::size_t>(base + ((t >> 1) & 1));
  return (w[word] >> ((t & 1) * 16)) & 0xFFFFu;
}

/// True when the event halfword ties the high half of either threshold,
/// so the refinement bits decide.
inline bool chain_tie(std::uint32_t e16, std::uint64_t t_call,
                      std::uint64_t t_move) {
  return e16 == (t_call >> 16) || e16 == (t_move >> 16);
}

/// Low 16 bits of the refinement draw for (stream, t).
inline std::uint32_t refine16(const SlotKey& key, std::uint64_t stream,
                              SimTime t) {
  return block(key, static_cast<std::uint64_t>(t), kRefineDomain, stream)[0] &
         0xFFFFu;
}

/// The chain decision from the 32-bit event value x: call below t_call,
/// otherwise a move below t_move.
inline void chain_decide(std::uint32_t x, std::uint64_t t_call,
                         std::uint64_t t_move, bool& called, bool& moved) {
  called = x < t_call;
  moved = !called && x < t_move;
}

}  // namespace slot_draw

/// One terminal's current chain quad block.  A scalar engine that walks a
/// terminal's slots in order computes one block per four slots through it,
/// as the kernels do; it is a pure cache of slot_draw::block.
class QuadBlockCache {
 public:
  const stats::PhiloxWords& at(const SlotKey& key, std::uint64_t stream,
                               SimTime t) {
    const SimTime group = t >> 2;
    if (group != group_) {
      words_ = slot_draw::block(key, static_cast<std::uint64_t>(group), 0,
                                stream);
      group_ = group;
    }
    return words_;
  }

 private:
  SimTime group_ = -1;
  stats::PhiloxWords words_{};
};

/// The decisions of terminal `stream` at slot `t`.  Chain semantics take
/// t_move = slot_threshold(c + q); independent semantics slot_threshold(q).
/// `cache`, when given, holds the terminal's chain quad block.
inline SlotDraw draw_slot(const SlotKey& key, std::uint64_t stream,
                          SimTime t, bool chain, std::uint64_t t_call,
                          std::uint64_t t_move,
                          QuadBlockCache* cache = nullptr) {
  SlotDraw draw;
  if (chain) {
    const stats::PhiloxWords w =
        cache != nullptr
            ? cache->at(key, stream, t)
            : slot_draw::block(key, static_cast<std::uint64_t>(t) >> 2, 0,
                               stream);
    const std::uint32_t e16 = slot_draw::chain_half(w, 0, t);
    // Without a tie the low bits cannot change either compare.
    const std::uint32_t low = slot_draw::chain_tie(e16, t_call, t_move)
                                  ? slot_draw::refine16(key, stream, t)
                                  : 0;
    slot_draw::chain_decide((e16 << 16) | low, t_call, t_move, draw.called,
                            draw.moved);
    draw.direction = DirectionDraw{slot_draw::chain_half(w, 2, t), true};
  } else {
    const stats::PhiloxWords w =
        slot_draw::block(key, static_cast<std::uint64_t>(t), 0, stream);
    draw.moved = w[0] < t_move;
    draw.called = w[1] < t_call;
    draw.direction = DirectionDraw{w[2], false};
  }
  return draw;
}

/// Whether terminal `stream`'s location update at slot `t` is lost, for
/// t_loss = slot_threshold(update_loss_prob).
inline bool update_lost(const SlotKey& key, std::uint64_t stream, SimTime t,
                        std::uint64_t t_loss) {
  return slot_draw::block(key, static_cast<std::uint64_t>(t),
                          slot_draw::kLossDomain, stream)[0] < t_loss;
}

}  // namespace pcn::sim
