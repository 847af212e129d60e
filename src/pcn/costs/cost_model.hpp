// Average location-update and paging cost model (paper §5).
//
// Given a chain spec (geometry + mobility/traffic profile) and cost weights
// (U, V), `CostModel` evaluates, for a threshold distance d and delay bound
// m:
//   C_u(d)    = p_{d,d} · a_{d,d+1} · U                 (eq. 61)
//   C_v(d,m)  = c · V · Σ_j α_j w_j                     (eqs. 62-65)
//   C_T(d,m)  = C_u(d) + C_v(d,m)                       (eq. 66)
// with the partitioning scheme selectable (paper SDF default).
//
// Evaluations are memoized: the steady-state distribution and the derived
// partition for each (threshold, bound) are solved once and shared by
// `update_cost`, `partition` and `paging_cost` — one `total_cost` call
// triggers exactly one chain solve, and a threshold sweep (the optimal-
// threshold search hot path) solves each chain once instead of O(d_max)
// times.  The cache is shared between copies of a model (the inputs are
// immutable) and is safe to hit from several threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pcn/common/params.hpp"
#include "pcn/costs/partition.hpp"
#include "pcn/markov/chain_spec.hpp"

namespace pcn::obs {
class MetricsRegistry;
}  // namespace pcn::obs

namespace pcn::costs {

/// How the residing area is split into paging subareas.
enum class PartitionScheme {
  kSdfEqual,                 ///< the paper's equal-split SDF rule
  kOptimalContiguous,        ///< DP-optimal contiguous split (paper §8)
  kHighestProbabilityFirst,  ///< per-cell-probability ring order + DP split
};

struct CostBreakdown {
  double update = 0.0;  ///< C_u(d)
  double paging = 0.0;  ///< C_v(d, m)

  double total() const { return update + paging; }
};

/// Lifetime telemetry of a model's memoized solver (shared by copies).
/// `evictions` is always 0 today — entries are never evicted, the counter
/// exists so the exported schema stays stable if an eviction policy ever
/// lands — and `solve_ns` is wall time spent inside chain solves.
struct SolveCacheStats {
  std::int64_t hits = 0;        ///< steady-state lookups served from cache
  std::int64_t misses = 0;      ///< steady-state solves performed
  std::int64_t evictions = 0;
  std::int64_t solve_ns = 0;
  std::int64_t partition_hits = 0;    ///< (d, m) partitions reused
  std::int64_t partition_misses = 0;  ///< partitions built
};

struct CostModelOptions {
  PartitionScheme scheme = PartitionScheme::kSdfEqual;
  /// Reproduce the paper's published numbers exactly: its Table 1 (1-D)
  /// and its Table 2 near-optimal columns (2-D approximate chain) computed
  /// C_u(0) with the generic i >= 1 outward rate (q/2 resp. q/3) although
  /// eqs. (3)/(43) print a_{0,1} = q.  Affects d = 0 only; defaults to the
  /// equations.  Rejected for the 2-D exact chain (the paper's Table 2
  /// exact columns correctly used q there).
  bool legacy_d0_generic_update_rate = false;
};

class CostModel {
 public:
  using Options = CostModelOptions;

  CostModel(markov::ChainSpec spec, CostWeights weights,
            Options options = {});

  /// Model with the exact chain for `dim`.
  static CostModel exact(Dimension dim, MobilityProfile profile,
                         CostWeights weights, Options options = {});

  /// Model with the approximate 2-D chain (paper §4.2).
  static CostModel approximate_2d(MobilityProfile profile, CostWeights weights,
                                  Options options = {});

  const markov::ChainSpec& spec() const { return spec_; }
  const CostWeights& weights() const { return weights_; }
  const Options& options() const { return options_; }
  Dimension dimension() const { return spec_.dimension(); }

  /// Steady-state ring-distance distribution for threshold d (d+1 entries).
  std::vector<double> steady_state(int threshold) const;

  /// Average location-update cost C_u(d).
  double update_cost(int threshold) const;

  /// Average paging cost C_v(d, m) under the configured partition scheme.
  double paging_cost(int threshold, DelayBound bound) const;

  /// Average paging cost under an explicit partition (must match d).
  double paging_cost(int threshold, const Partition& partition) const;

  /// C_u + C_v under the configured scheme.
  CostBreakdown cost(int threshold, DelayBound bound) const;

  /// Convenience: cost(threshold, bound).total().
  double total_cost(int threshold, DelayBound bound) const;

  /// The partition the configured scheme produces for (d, m).
  Partition partition(int threshold, DelayBound bound) const;

  /// Cache hit/miss/evict telemetry for the memoized solver.  Copies of a
  /// model share one cache and therefore one set of counters.
  SolveCacheStats solve_cache_stats() const;

  /// Streams the cache counters into `registry` as
  /// `costmodel.solve.hit` / `.miss` / `.evict` / `.ns` and
  /// `costmodel.partition.hit` / `.miss`.  The current lifetime totals are
  /// back-filled at bind time, so late binding loses nothing; rebinding
  /// redirects future activity to the new registry.  Copies of the model
  /// share the binding.
  void bind_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct SolveCache;

  /// Cached steady-state distribution for `threshold`; solves on miss.
  /// The reference stays valid for the model's lifetime (entries are never
  /// evicted and the map's nodes are stable).
  const std::vector<double>& cached_steady_state(int threshold) const;
  /// Cached partition for (threshold, bound) under the configured scheme.
  const Partition& cached_partition(int threshold, DelayBound bound) const;

  markov::ChainSpec spec_;
  CostWeights weights_;
  Options options_;
  std::shared_ptr<SolveCache> cache_;
};

}  // namespace pcn::costs
