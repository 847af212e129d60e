#include "pcn/optimize/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <unordered_map>

#include "pcn/common/error.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/tsc.hpp"

namespace pcn::optimize {

Optimum simulated_annealing(const costs::CostModel& model, DelayBound bound,
                            const AnnealingConfig& config,
                            obs::MetricsRegistry* registry) {
  PCN_EXPECT(config.max_threshold >= 0,
             "simulated_annealing: max_threshold must be >= 0");
  PCN_EXPECT(config.y > 0.0, "simulated_annealing: y must be > 0");
  PCN_EXPECT(config.exit_temperature > 0.0 && config.exit_temperature < 1.0,
             "simulated_annealing: exit temperature must lie in (0, 1)");
  PCN_EXPECT(config.neighborhood >= 1,
             "simulated_annealing: neighborhood must be >= 1");

  const std::int64_t start_ns =
      registry != nullptr ? obs::monotonic_ns() : 0;
  std::mt19937_64 rng(config.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> init(0, config.max_threshold);

  // Memoize cost evaluations: the walk revisits thresholds frequently and
  // each evaluation solves a chain.
  std::unordered_map<int, double> cache;
  int evaluations = 0;
  auto cost_of = [&](int d) {
    auto it = cache.find(d);
    if (it != cache.end()) return it->second;
    const double cost = model.total_cost(d, bound);
    ++evaluations;
    cache.emplace(d, cost);
    return cost;
  };

  auto neighbor_of = [&](int d) {
    std::uniform_int_distribution<int> step(1, config.neighborhood);
    int candidate = d;
    do {
      const int delta = step(rng) * (unit(rng) < 0.5 ? -1 : 1);
      candidate = std::clamp(d + delta, 0, config.max_threshold);
    } while (candidate == d && config.max_threshold > 0);
    return candidate;
  };

  int current = init(rng);
  double current_cost = cost_of(current);
  Optimum best{current, current_cost, 0};

  double temperature = 1.0;
  std::int64_t iterations = 0;
  std::int64_t accepted = 0;
  for (int k = 1; temperature > config.exit_temperature; ++k) {
    ++iterations;
    const int candidate = neighbor_of(current);
    const double candidate_cost = cost_of(candidate);
    const double delta = current_cost - candidate_cost;  // paper's Δd
    // replace((Δ, d'), d): accept improvements outright, otherwise accept
    // with Boltzmann probability exp(Δ/T) (Δ < 0 here).
    if (delta >= 0.0 || unit(rng) < std::exp(delta / temperature)) {
      current = candidate;
      current_cost = candidate_cost;
      ++accepted;
    }
    if (current_cost < best.total_cost) {
      best.threshold = current;
      best.total_cost = current_cost;
    }
    temperature = config.y / (config.y + k);
  }
  best.evaluations = evaluations;
  if (registry != nullptr) {
    registry->counter("optimizer.anneal.searches").increment();
    registry->counter("optimizer.anneal.iterations").add(iterations);
    registry->counter("optimizer.anneal.accepted").add(accepted);
    registry->counter("optimizer.anneal.evaluations").add(evaluations);
    registry->counter("optimizer.anneal.wall_ns")
        .add(obs::monotonic_ns() - start_ns);
  }
  return best;
}

}  // namespace pcn::optimize
