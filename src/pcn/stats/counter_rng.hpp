// Counter-based random streams for lane-parallel simulation.
//
// Implements Philox4x32-10 (Salmon, Moraes, Dror & Shaw, "Parallel random
// numbers: as easy as 1, 2, 3", SC'11 — the Random123 generator): a keyed
// bijection from a 128-bit counter to 128 bits of output.  Unlike the
// sequential xoshiro streams in rng.hpp, a counter-based draw is a pure
// function of (key, stream, counter), so SIMD lanes need no per-lane
// mutable state and any (terminal, slot) pair can be evaluated in any
// order — the property the simulator's slot draws are built on (they key
// the stream with the terminal id and the counter with the absolute slot;
// see sim/slot_draw.hpp).
//
// The round function is ten rounds of
//
//   (c0,c1,c2,c3) <- (hi(M1*c2)^c1^k0, lo(M1*c2), hi(M0*c0)^c3^k1, lo(M0*c0))
//
// with the key bumped by the Weyl constants between rounds; the
// implementation is verified against the published Random123 known-answer
// vectors in tests/stats/test_counter_rng.cpp.
//
// Everything is header-inline: the simd kernels evaluate one block per
// (terminal, slot) on the hot path, and the scalar form must compile down
// to straight-line integer code so the portable fallback and the AVX2
// kernel produce bit-identical words.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "pcn/stats/rng.hpp"

namespace pcn::stats {

/// One Philox output block: four uniform 32-bit words.
using PhiloxWords = std::array<std::uint32_t, 4>;

namespace philox_detail {

inline constexpr std::uint32_t kMul0 = 0xD2511F53u;
inline constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
inline constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
inline constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;
inline constexpr int kRounds = 10;

}  // namespace philox_detail

/// The raw keyed bijection: counter words (c0..c3) -> output words under
/// key (key0, key1).  Exposed so the vector kernels can replicate the
/// exact same arithmetic lane-wise.
inline PhiloxWords philox4x32(std::uint32_t key0, std::uint32_t key1,
                              std::uint32_t c0, std::uint32_t c1,
                              std::uint32_t c2, std::uint32_t c3) {
  using namespace philox_detail;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t p0 = std::uint64_t{kMul0} * c0;
    const std::uint64_t p1 = std::uint64_t{kMul1} * c2;
    const std::uint32_t n0 = static_cast<std::uint32_t>(p1 >> 32) ^ c1 ^ key0;
    const std::uint32_t n1 = static_cast<std::uint32_t>(p1);
    const std::uint32_t n2 = static_cast<std::uint32_t>(p0 >> 32) ^ c3 ^ key1;
    const std::uint32_t n3 = static_cast<std::uint32_t>(p0);
    c0 = n0;
    c1 = n1;
    c2 = n2;
    c3 = n3;
    key0 += kWeyl0;
    key1 += kWeyl1;
  }
  return {c0, c1, c2, c3};
}

/// Fixed-point event threshold: for a uniform 32-bit word w,
/// P(w < threshold32(p)) approximates p with error below 2^-32 (the
/// nearest representable probability; p = 1 saturates at (2^32-1)/2^32).
/// The daemon's load generator compares event words against these
/// thresholds instead of converting to double, keeping its hot path pure
/// integer (the simulator uses sim::slot_threshold, exact at p = 1).
inline std::uint32_t threshold32(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return 0xFFFFFFFFu;
  const auto scaled =
      static_cast<std::uint64_t>(std::llround(p * 4294967296.0));
  return scaled >= 0xFFFFFFFFull ? 0xFFFFFFFFu
                                 : static_cast<std::uint32_t>(scaled);
}

/// A keyed family of stateless uniform streams.  `stream` indexes an
/// independent substream (e.g. a terminal id), `counter` a position within
/// it (e.g. a slot); every (stream, counter) block is independent of every
/// other, and reading them in any order — or not at all — changes nothing.
class CounterRng {
 public:
  /// Keys the family directly with a 64-bit key.
  explicit CounterRng(std::uint64_t key)
      : key0_(static_cast<std::uint32_t>(key)),
        key1_(static_cast<std::uint32_t>(key >> 32)) {}

  /// Keys the family from a seed and a purpose salt through the shared
  /// seed_from helper, so callers (the simulator, tests) never collide
  /// with the sequential Rng streams derived from the same seed.
  static CounterRng keyed(std::uint64_t seed, std::uint64_t salt) {
    return CounterRng(rng_detail::seed_from(seed, salt));
  }

  std::uint64_t key() const {
    return key0_ | (std::uint64_t{key1_} << 32);
  }
  std::uint32_t key_lo() const { return key0_; }
  std::uint32_t key_hi() const { return key1_; }

  /// The four uniform words at (stream, counter).  The counter fills
  /// words 0–1, the stream words 2–3, matching the simd kernel layout.
  PhiloxWords block(std::uint64_t stream, std::uint64_t counter) const {
    return philox4x32(key0_, key1_, static_cast<std::uint32_t>(counter),
                      static_cast<std::uint32_t>(counter >> 32),
                      static_cast<std::uint32_t>(stream),
                      static_cast<std::uint32_t>(stream >> 32));
  }

  /// One uniform 64-bit value at (stream, counter) (words 0–1 packed).
  std::uint64_t next64(std::uint64_t stream, std::uint64_t counter) const {
    const PhiloxWords w = block(stream, counter);
    return w[0] | (std::uint64_t{w[1]} << 32);
  }

  /// Uniform double in [0, 1) at (stream, counter) — 53 high bits, the
  /// same mapping Rng::next_unit uses.
  double unit(std::uint64_t stream, std::uint64_t counter) const {
    return static_cast<double>(next64(stream, counter) >> 11) * 0x1.0p-53;
  }

  /// Derives an independently-keyed child family (nonlinear in `salt`,
  /// mirroring Rng::split's salt mixing, so derived keys do not alias the
  /// linear seed_from walk).
  CounterRng derive(std::uint64_t salt) const {
    return CounterRng(rng_detail::mix64(
        key() ^ (salt * 0x9e3779b97f4a7c15ULL + 0x853c49e6748fea9bULL)));
  }

 private:
  std::uint32_t key0_ = 0;
  std::uint32_t key1_ = 0;
};

}  // namespace pcn::stats
