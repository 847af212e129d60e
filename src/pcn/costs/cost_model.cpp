#include "pcn/costs/cost_model.hpp"

#include <mutex>
#include <unordered_map>
#include <utility>

#include "pcn/common/error.hpp"
#include "pcn/markov/steady_state.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/tsc.hpp"

namespace pcn::costs {
namespace {

/// Packs (threshold, bound) into one map key; unbounded maps to all-ones.
std::uint64_t partition_key(int threshold, DelayBound bound) {
  const std::uint32_t cycles =
      bound.is_unbounded() ? ~std::uint32_t{0}
                           : static_cast<std::uint32_t>(bound.cycles());
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(threshold))
          << 32) |
         cycles;
}

}  // namespace

/// Memoized solver results.  Guarded by a mutex so a model shared across
/// simulation shards or optimizer threads stays consistent; references into
/// the maps remain valid because entries are node-stable and never erased.
///
/// The cache keeps its own lifetime telemetry (stats, under the mutex) and
/// optionally mirrors it into a bound MetricsRegistry — null counter
/// handles make the mirroring a no-op until bind_metrics is called.
struct CostModel::SolveCache {
  std::mutex mutex;
  std::unordered_map<int, std::vector<double>> steady_states;
  std::unordered_map<std::uint64_t, Partition> partitions;
  SolveCacheStats stats;
  obs::Counter hit_counter, miss_counter, evict_counter, ns_counter;
  obs::Counter partition_hit_counter, partition_miss_counter;
};

CostModel::CostModel(markov::ChainSpec spec, CostWeights weights,
                     Options options)
    : spec_(spec),
      weights_(weights),
      options_(options),
      cache_(std::make_shared<SolveCache>()) {
  weights_.validate();
  PCN_EXPECT(!options_.legacy_d0_generic_update_rate ||
                 spec_.kind() != markov::ChainKind::kTwoDimExact,
             "CostModel: the legacy d = 0 quirk applies to the 1-D chain "
             "and the approximate 2-D chain only");
}

CostModel CostModel::exact(Dimension dim, MobilityProfile profile,
                           CostWeights weights, Options options) {
  return CostModel(markov::ChainSpec::exact(dim, profile), weights, options);
}

CostModel CostModel::approximate_2d(MobilityProfile profile,
                                    CostWeights weights, Options options) {
  return CostModel(markov::ChainSpec::two_dim_approx(profile), weights,
                   options);
}

const std::vector<double>& CostModel::cached_steady_state(
    int threshold) const {
  PCN_EXPECT(threshold >= 0, "CostModel: threshold must be >= 0");
  std::lock_guard<std::mutex> lock(cache_->mutex);
  auto it = cache_->steady_states.find(threshold);
  if (it == cache_->steady_states.end()) {
    const std::int64_t start_ns = obs::monotonic_ns();
    it = cache_->steady_states
             .emplace(threshold, markov::solve_steady_state(spec_, threshold))
             .first;
    const std::int64_t elapsed_ns = obs::monotonic_ns() - start_ns;
    ++cache_->stats.misses;
    cache_->stats.solve_ns += elapsed_ns;
    cache_->miss_counter.increment();
    cache_->ns_counter.add(elapsed_ns);
  } else {
    ++cache_->stats.hits;
    cache_->hit_counter.increment();
  }
  return it->second;
}

const Partition& CostModel::cached_partition(int threshold,
                                             DelayBound bound) const {
  const std::uint64_t key = partition_key(threshold, bound);
  {
    std::lock_guard<std::mutex> lock(cache_->mutex);
    auto it = cache_->partitions.find(key);
    if (it != cache_->partitions.end()) {
      ++cache_->stats.partition_hits;
      cache_->partition_hit_counter.increment();
      return it->second;
    }
  }
  // Build outside the lock (the DP schemes need the steady state, which
  // itself takes the lock); insertion is idempotent on a lost race.
  Partition built = [&] {
    switch (options_.scheme) {
      case PartitionScheme::kSdfEqual:
        return Partition::sdf(threshold, bound);
      case PartitionScheme::kOptimalContiguous:
        return Partition::optimal(cached_steady_state(threshold), dimension(),
                                  bound);
      case PartitionScheme::kHighestProbabilityFirst:
        return Partition::highest_probability_first(
            cached_steady_state(threshold), dimension(), bound);
    }
    PCN_ASSERT(false);
    return Partition::blanket(threshold);
  }();
  std::lock_guard<std::mutex> lock(cache_->mutex);
  const auto [it, inserted] =
      cache_->partitions.emplace(key, std::move(built));
  if (inserted) {
    ++cache_->stats.partition_misses;
    cache_->partition_miss_counter.increment();
  } else {
    // Lost the build race: the insert was a no-op and this lookup was
    // effectively served from the cache.
    ++cache_->stats.partition_hits;
    cache_->partition_hit_counter.increment();
  }
  return it->second;
}

SolveCacheStats CostModel::solve_cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_->mutex);
  return cache_->stats;
}

void CostModel::bind_metrics(obs::MetricsRegistry& registry) const {
  std::lock_guard<std::mutex> lock(cache_->mutex);
  cache_->hit_counter = registry.counter("costmodel.solve.hit");
  cache_->miss_counter = registry.counter("costmodel.solve.miss");
  cache_->evict_counter = registry.counter("costmodel.solve.evict");
  cache_->ns_counter = registry.counter("costmodel.solve.ns");
  cache_->partition_hit_counter =
      registry.counter("costmodel.partition.hit");
  cache_->partition_miss_counter =
      registry.counter("costmodel.partition.miss");
  // Back-fill activity that predates the binding so the registry shows
  // lifetime totals.
  cache_->hit_counter.add(cache_->stats.hits);
  cache_->miss_counter.add(cache_->stats.misses);
  cache_->evict_counter.add(cache_->stats.evictions);
  cache_->ns_counter.add(cache_->stats.solve_ns);
  cache_->partition_hit_counter.add(cache_->stats.partition_hits);
  cache_->partition_miss_counter.add(cache_->stats.partition_misses);
}

std::vector<double> CostModel::steady_state(int threshold) const {
  return cached_steady_state(threshold);
}

double CostModel::update_cost(int threshold) const {
  PCN_EXPECT(threshold >= 0, "CostModel: threshold must be >= 0");
  const std::vector<double>& pi = cached_steady_state(threshold);
  double exit_rate = spec_.up(threshold);
  if (threshold == 0 && options_.legacy_d0_generic_update_rate) {
    // The published numbers used the generic i >= 1 formula at d = 0.
    exit_rate = spec_.kind() == markov::ChainKind::kOneDimExact
                    ? spec_.profile().move_prob / 2.0
                    : spec_.profile().move_prob / 3.0;
  }
  return pi.back() * exit_rate * weights_.update_cost;
}

Partition CostModel::partition(int threshold, DelayBound bound) const {
  return cached_partition(threshold, bound);
}

double CostModel::paging_cost(int threshold, DelayBound bound) const {
  return paging_cost(threshold, cached_partition(threshold, bound));
}

double CostModel::paging_cost(int threshold,
                              const Partition& partition) const {
  PCN_EXPECT(partition.threshold() == threshold,
             "CostModel::paging_cost: partition threshold mismatch");
  const std::vector<double>& pi = cached_steady_state(threshold);
  return spec_.call() * weights_.poll_cost *
         partition.expected_polled_cells(pi, dimension());
}

CostBreakdown CostModel::cost(int threshold, DelayBound bound) const {
  return CostBreakdown{update_cost(threshold), paging_cost(threshold, bound)};
}

double CostModel::total_cost(int threshold, DelayBound bound) const {
  return cost(threshold, bound).total();
}

}  // namespace pcn::costs
