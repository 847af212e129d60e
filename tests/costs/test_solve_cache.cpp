// The cost model's memoized steady-state solve: cached distributions must
// equal the uncached solver exactly, and the evaluation hot path must
// trigger exactly one chain solve per threshold.
#include <gtest/gtest.h>

#include <vector>

#include "pcn/costs/cost_model.hpp"
#include "pcn/markov/steady_state.hpp"

namespace pcn::costs {
namespace {

constexpr MobilityProfile kProfile{0.1, 0.02};
constexpr CostWeights kWeights{100.0, 5.0};

std::vector<markov::ChainSpec> all_chain_kinds() {
  return {markov::ChainSpec::one_dim(kProfile),
          markov::ChainSpec::two_dim_exact(kProfile),
          markov::ChainSpec::two_dim_approx(kProfile)};
}

TEST(SolveCache, MatchesUncachedSolverForAllKindsAndThresholds) {
  for (const markov::ChainSpec& spec : all_chain_kinds()) {
    const CostModel model(spec, kWeights);
    for (int d = 0; d <= 64; ++d) {
      const std::vector<double> cached = model.steady_state(d);
      const std::vector<double> direct = markov::solve_steady_state(spec, d);
      ASSERT_EQ(cached.size(), direct.size());
      for (std::size_t i = 0; i < cached.size(); ++i) {
        // Same solver, same inputs: the cache must be bit-transparent.
        EXPECT_EQ(cached[i], direct[i])
            << "kind=" << static_cast<int>(spec.kind()) << " d=" << d
            << " i=" << i;
      }
    }
    // The repeat pass above hit the cache: one solve per threshold.
    EXPECT_EQ(model.solve_cache_stats().misses, 65);
  }
}

TEST(SolveCache, OneTotalCostCallTriggersExactlyOneSolve) {
  for (auto scheme :
       {PartitionScheme::kSdfEqual, PartitionScheme::kOptimalContiguous,
        PartitionScheme::kHighestProbabilityFirst}) {
    CostModelOptions options;
    options.scheme = scheme;
    const CostModel model = CostModel::exact(Dimension::kTwoD, kProfile,
                                             kWeights, options);
    ASSERT_EQ(model.solve_cache_stats().misses, 0);
    model.total_cost(7, DelayBound(3));
    EXPECT_EQ(model.solve_cache_stats().misses, 1)
        << "scheme " << static_cast<int>(scheme);
    // Every decomposition of the same evaluation shares that solve.
    model.update_cost(7);
    model.paging_cost(7, DelayBound(3));
    model.partition(7, DelayBound(3));
    model.cost(7, DelayBound(3));
    EXPECT_EQ(model.solve_cache_stats().misses, 1);
    // A new threshold costs one more; a new bound at a known threshold is
    // free (the steady state does not depend on m).
    model.total_cost(8, DelayBound(3));
    EXPECT_EQ(model.solve_cache_stats().misses, 2);
    model.total_cost(7, DelayBound(5));
    model.total_cost(7, DelayBound::unbounded());
    EXPECT_EQ(model.solve_cache_stats().misses, 2);
  }
}

TEST(SolveCache, SweepSolvesEachThresholdOnce) {
  const CostModel model =
      CostModel::exact(Dimension::kTwoD, kProfile, kWeights);
  const int d_max = 40;
  for (int d = 0; d <= d_max; ++d) model.total_cost(d, DelayBound(3));
  EXPECT_EQ(model.solve_cache_stats().misses, d_max + 1);
  // A second full sweep is free.
  for (int d = 0; d <= d_max; ++d) model.total_cost(d, DelayBound(3));
  EXPECT_EQ(model.solve_cache_stats().misses, d_max + 1);
}

TEST(SolveCache, CopiesShareTheCache) {
  const CostModel model =
      CostModel::exact(Dimension::kTwoD, kProfile, kWeights);
  model.total_cost(5, DelayBound(2));
  const CostModel copy = model;  // same immutable inputs -> shared cache
  EXPECT_EQ(copy.solve_cache_stats().misses, 1);
  copy.total_cost(5, DelayBound(2));
  EXPECT_EQ(copy.solve_cache_stats().misses, 1);
  copy.total_cost(6, DelayBound(2));
  EXPECT_EQ(model.solve_cache_stats().misses, 2);
}

TEST(SolveCache, CachedPartitionEqualsFreshConstruction) {
  for (auto scheme :
       {PartitionScheme::kSdfEqual, PartitionScheme::kOptimalContiguous,
        PartitionScheme::kHighestProbabilityFirst}) {
    CostModelOptions options;
    options.scheme = scheme;
    const CostModel model = CostModel::exact(Dimension::kTwoD, kProfile,
                                             kWeights, options);
    for (int d : {0, 3, 11}) {
      for (DelayBound bound :
           {DelayBound(1), DelayBound(3), DelayBound::unbounded()}) {
        const Partition first = model.partition(d, bound);
        const Partition again = model.partition(d, bound);
        EXPECT_EQ(first, again);
        EXPECT_EQ(first.threshold(), d);
      }
    }
  }
}

}  // namespace
}  // namespace pcn::costs
