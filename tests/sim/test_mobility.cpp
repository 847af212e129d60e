#include "pcn/sim/mobility.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "pcn/common/error.hpp"
#include "pcn/stats/rng.hpp"

namespace pcn::sim {
namespace {

TEST(RandomWalk, ReportsItsMoveProbability) {
  const RandomWalk walk(Dimension::kTwoD, 0.25);
  EXPECT_DOUBLE_EQ(walk.move_probability(0), 0.25);
  EXPECT_DOUBLE_EQ(walk.move_probability(1000000), 0.25);
}

TEST(RandomWalk, RejectsInvalidMoveProbability) {
  EXPECT_THROW(RandomWalk(Dimension::kOneD, 0.0), InvalidArgument);
  EXPECT_THROW(RandomWalk(Dimension::kOneD, 1.0001), InvalidArgument);
}

/// A full-word (independent-semantics) direction draw.
DirectionDraw word_draw(stats::Rng& rng) {
  return DirectionDraw{static_cast<std::uint32_t>(rng.next()), false};
}

TEST(RandomWalk, TargetsAreAlwaysNeighbors) {
  const RandomWalk walk(Dimension::kTwoD, 0.5);
  stats::Rng rng(1);
  geometry::Cell cursor{};
  for (int step = 0; step < 2000; ++step) {
    const geometry::Cell next = walk.move_target(cursor, step, word_draw(rng));
    EXPECT_EQ(geometry::cell_distance(Dimension::kTwoD, cursor, next), 1);
    cursor = next;
  }
}

TEST(RandomWalk, OneDimWalkStaysOnTheLine) {
  const RandomWalk walk(Dimension::kOneD, 0.5);
  stats::Rng rng(2);
  geometry::Cell cursor{};
  for (int step = 0; step < 2000; ++step) {
    const geometry::Cell next = walk.move_target(cursor, step, word_draw(rng));
    EXPECT_EQ(next.r, 0);
    EXPECT_EQ(geometry::cell_distance(Dimension::kOneD, cursor, next), 1);
    cursor = next;
  }
}

TEST(RandomWalk, DirectionDrawIndexesTheNeighborTables) {
  // The draw maps straight to a neighbor: hex_directions() order in 2-D
  // (halfword d -> (d * 6) >> 16), the low bit as -1/+1 on the line.
  const RandomWalk hex(Dimension::kTwoD, 0.5);
  const RandomWalk line(Dimension::kOneD, 0.5);
  const geometry::Cell origin{};
  for (int dir = 0; dir < 6; ++dir) {
    const auto halfword = static_cast<std::uint32_t>((dir * 65536 + 65535) / 6);
    EXPECT_EQ((DirectionDraw{halfword, true}.hex()), dir);
    EXPECT_EQ(hex.move_target(origin, 0, DirectionDraw{halfword, true}),
              geometry::hex_directions()[static_cast<std::size_t>(dir)]);
  }
  EXPECT_EQ(line.move_target(origin, 0, DirectionDraw{2, false}),
            (geometry::Cell{-1, 0}));
  EXPECT_EQ(line.move_target(origin, 0, DirectionDraw{3, false}),
            (geometry::Cell{1, 0}));
}

TEST(RandomWalk, HalfwordDirectionsAreUniform) {
  // Every chain-semantics halfword lands on one of the 6 neighbors, each
  // taking 65536 / 6 of them to within one.
  const RandomWalk walk(Dimension::kTwoD, 1.0);
  std::map<std::pair<std::int64_t, std::int64_t>, int> counts;
  for (std::uint32_t d = 0; d < 65536; ++d) {
    const geometry::Cell next =
        walk.move_target(geometry::Cell{}, 0, DirectionDraw{d, true});
    ++counts[{next.q, next.r}];
  }
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [cell, count] : counts) {
    EXPECT_NEAR(count, 65536.0 / 6, 1.0);
  }
}

TEST(RandomWalk, NeighborSelectionIsUniform) {
  // Paper: each of the 6 neighbors is chosen with probability 1/6.
  const RandomWalk walk(Dimension::kTwoD, 1.0);
  stats::Rng rng(3);
  std::map<std::pair<std::int64_t, std::int64_t>, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const geometry::Cell next =
        walk.move_target(geometry::Cell{}, i, word_draw(rng));
    ++counts[{next.q, next.r}];
  }
  ASSERT_EQ(counts.size(), 6u);
  const double expected = n / 6.0;
  const double sigma = std::sqrt(n * (1.0 / 6) * (5.0 / 6));
  for (const auto& [cell, count] : counts) {
    EXPECT_NEAR(count, expected, 5 * sigma);
  }
}

TEST(PhasedRandomWalk, SwitchesProbabilityOnSchedule) {
  const PhasedRandomWalk walk(
      Dimension::kTwoD,
      {{0.4, 100}, {0.01, 50}});
  EXPECT_DOUBLE_EQ(walk.move_probability(0), 0.4);
  EXPECT_DOUBLE_EQ(walk.move_probability(99), 0.4);
  EXPECT_DOUBLE_EQ(walk.move_probability(100), 0.01);
  EXPECT_DOUBLE_EQ(walk.move_probability(149), 0.01);
  // Periodic wrap-around.
  EXPECT_DOUBLE_EQ(walk.move_probability(150), 0.4);
  EXPECT_DOUBLE_EQ(walk.move_probability(150 + 149), 0.01);
}

TEST(PhasedRandomWalk, ValidatesPhases) {
  EXPECT_THROW(PhasedRandomWalk(Dimension::kOneD, {}), InvalidArgument);
  EXPECT_THROW(PhasedRandomWalk(Dimension::kOneD, {{0.0, 10}}),
               InvalidArgument);
  EXPECT_THROW(PhasedRandomWalk(Dimension::kOneD, {{0.1, 0}}),
               InvalidArgument);
}

TEST(PhasedRandomWalk, TargetsAreNeighbors) {
  const PhasedRandomWalk walk(Dimension::kOneD, {{0.2, 10}});
  stats::Rng rng(4);
  const geometry::Cell next =
      walk.move_target(geometry::Cell{5, 0}, 0, word_draw(rng));
  EXPECT_EQ(geometry::cell_distance(Dimension::kOneD, geometry::Cell{5, 0},
                                    next),
            1);
}

TEST(MobilityModels, HaveDescriptiveNames) {
  EXPECT_EQ(RandomWalk(Dimension::kOneD, 0.1).name(), "random-walk");
  EXPECT_EQ(PhasedRandomWalk(Dimension::kOneD, {{0.1, 5}}).name(),
            "phased-random-walk");
}

}  // namespace
}  // namespace pcn::sim
