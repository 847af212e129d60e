// Counter-based RNG (stats/counter_rng.hpp): known-answer vectors for the
// Philox4x32-10 bijection, determinism and ordering-freedom of the keyed
// streams, statistical independence between adjacent streams (the simd
// engine keys one stream per terminal id), and the key-derivation edge
// cases.
#include "pcn/stats/counter_rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace pcn::stats {
namespace {

// --- Known-answer vectors (Random123 philox4x32x10) -------------------------

TEST(Philox4x32, ZeroCounterZeroKeyVector) {
  const PhiloxWords w = philox4x32(0, 0, 0, 0, 0, 0);
  EXPECT_EQ(w[0], 0x6627e8d5u);
  EXPECT_EQ(w[1], 0xe169c58du);
  EXPECT_EQ(w[2], 0xbc57ac4cu);
  EXPECT_EQ(w[3], 0x9b00dbd8u);
}

TEST(Philox4x32, AllOnesVector) {
  const PhiloxWords w =
      philox4x32(0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu,
                 0xffffffffu, 0xffffffffu);
  EXPECT_EQ(w[0], 0x408f276du);
  EXPECT_EQ(w[1], 0x41c83b0eu);
  EXPECT_EQ(w[2], 0xa20bc7c6u);
  EXPECT_EQ(w[3], 0x6d5451fdu);
}

TEST(Philox4x32, PiDigitsVector) {
  // Counter and key from the hex digits of pi, as in the Random123 KAT.
  const PhiloxWords w =
      philox4x32(0xa4093822u, 0x299f31d0u, 0x243f6a88u, 0x85a308d3u,
                 0x13198a2eu, 0x03707344u);
  EXPECT_EQ(w[0], 0xd16cfe09u);
  EXPECT_EQ(w[1], 0x94fdccebu);
  EXPECT_EQ(w[2], 0x5001e420u);
  EXPECT_EQ(w[3], 0x24126ea1u);
}

// --- Keyed stream family ----------------------------------------------------

TEST(CounterRng, DeterministicAndOrderFree) {
  const CounterRng rng(0x123456789abcdef0ULL);
  // Same (stream, counter) -> same block, regardless of what was read
  // before (there is no hidden state to advance).
  const PhiloxWords first = rng.block(7, 42);
  rng.block(9999, 0);
  rng.block(7, 43);
  EXPECT_EQ(rng.block(7, 42), first);
  const CounterRng again(0x123456789abcdef0ULL);
  EXPECT_EQ(again.block(7, 42), first);
}

TEST(CounterRng, KeyRoundTripsThroughHalves) {
  const CounterRng rng(0xfedcba9876543210ULL);
  EXPECT_EQ(rng.key(), 0xfedcba9876543210ULL);
  EXPECT_EQ(rng.key_lo(), 0x76543210u);
  EXPECT_EQ(rng.key_hi(), 0xfedcba98u);
}

TEST(CounterRng, KeyedDerivesThroughSeedFrom) {
  // keyed() must agree with the shared seed_from helper so the simulator's
  // key derivation is pinned to the documented scheme.
  const CounterRng rng = CounterRng::keyed(42, 7);
  EXPECT_EQ(rng.key(), rng_detail::seed_from(42, 7));
  // Distinct seeds and distinct salts give distinct keys.
  EXPECT_NE(CounterRng::keyed(42, 7).key(), CounterRng::keyed(43, 7).key());
  EXPECT_NE(CounterRng::keyed(42, 7).key(), CounterRng::keyed(42, 8).key());
}

TEST(CounterRng, SeedFromMatchesRngStateExpansion) {
  // Rng(seed) expands its state through the same helper (word i =
  // seed_from(seed, i)); equal first outputs across the two code paths
  // would be a collision, not a design goal — what we pin here is that
  // seed_from is the SplitMix64 stream of `seed`.
  std::uint64_t state = 42;
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rng_detail::seed_from(42, i), rng_detail::splitmix64(state));
  }
}

TEST(CounterRng, Next64PacksWordsZeroAndOne) {
  const CounterRng rng(99);
  const PhiloxWords w = rng.block(3, 5);
  EXPECT_EQ(rng.next64(3, 5), w[0] | (std::uint64_t{w[1]} << 32));
}

TEST(CounterRng, UnitStaysInHalfOpenInterval) {
  const CounterRng rng(1234);
  for (std::uint64_t counter = 0; counter < 2000; ++counter) {
    const double u = rng.unit(counter & 7, counter);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CounterRng, DeriveGivesIndependentDeterministicChildren) {
  const CounterRng parent(0xabcdefULL);
  const CounterRng child = parent.derive(1);
  EXPECT_EQ(child.key(), parent.derive(1).key());
  EXPECT_NE(child.key(), parent.key());
  EXPECT_NE(parent.derive(1).key(), parent.derive(2).key());
  // derive(0) must not be an identity (the salt mixing is affine-offset).
  EXPECT_NE(parent.derive(0).key(), parent.key());
  // Child blocks differ from parent blocks at the same coordinates.
  EXPECT_NE(child.block(0, 0), parent.block(0, 0));
}

// --- Statistical independence between adjacent streams ----------------------

// The simd engine keys stream = terminal id, so adjacent ids must behave
// as independent sources.  Critical values are for alpha = 1e-6, so a
// false failure is a once-per-million-runs event.

TEST(CounterRng, LowBitsUniformWithinAStream) {
  // Chi-square on the low 3 bits of word 0 over 1 << 14 counters.
  // dof = 7, critical value chi^2_{7, 1e-6} = 39.25.
  const CounterRng rng = CounterRng::keyed(2026, 0x5150);
  for (std::uint64_t stream : {0ULL, 1ULL, 1000000ULL}) {
    constexpr int kDraws = 1 << 14;
    std::int64_t cells[8] = {0};
    for (std::uint64_t counter = 0; counter < kDraws; ++counter) {
      cells[rng.block(stream, counter)[0] & 7u]++;
    }
    const double expected = kDraws / 8.0;
    double chi2 = 0.0;
    for (const std::int64_t observed : cells) {
      const double d = static_cast<double>(observed) - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 39.25) << "stream " << stream;
  }
}

TEST(CounterRng, AdjacentStreamsAreUncorrelated) {
  // 2x2 contingency table of (bit0 of stream t, bit0 of stream t+1) at the
  // same counter: under independence the table's chi-square statistic has
  // dof = 1, critical value chi^2_{1, 1e-6} = 23.93.
  const CounterRng rng = CounterRng::keyed(7, 0xad7a);
  for (std::uint64_t stream : {0ULL, 17ULL, 4095ULL}) {
    constexpr int kDraws = 1 << 14;
    std::int64_t table[2][2] = {{0, 0}, {0, 0}};
    for (std::uint64_t counter = 0; counter < kDraws; ++counter) {
      const std::uint32_t a = rng.block(stream, counter)[0] & 1u;
      const std::uint32_t b = rng.block(stream + 1, counter)[0] & 1u;
      table[a][b]++;
    }
    double chi2 = 0.0;
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        const double row = static_cast<double>(table[a][0] + table[a][1]);
        const double col = static_cast<double>(table[0][b] + table[1][b]);
        const double expected = row * col / kDraws;
        const double d = static_cast<double>(table[a][b]) - expected;
        chi2 += d * d / expected;
      }
    }
    EXPECT_LT(chi2, 23.93) << "streams " << stream << "," << stream + 1;
  }
}

}  // namespace
}  // namespace pcn::stats
