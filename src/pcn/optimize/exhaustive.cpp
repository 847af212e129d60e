#include "pcn/optimize/exhaustive.hpp"

#include "pcn/common/error.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/tsc.hpp"

namespace pcn::optimize {

Optimum exhaustive_search(const costs::CostModel& model, DelayBound bound,
                          int max_threshold, obs::MetricsRegistry* registry) {
  PCN_EXPECT(max_threshold >= 0,
             "exhaustive_search: max_threshold must be >= 0");
  const std::int64_t start_ns =
      registry != nullptr ? obs::monotonic_ns() : 0;
  Optimum best{0, model.total_cost(0, bound), 1};
  for (int d = 1; d <= max_threshold; ++d) {
    const double cost = model.total_cost(d, bound);
    ++best.evaluations;
    if (cost < best.total_cost) {
      best.total_cost = cost;
      best.threshold = d;
    }
  }
  if (registry != nullptr) {
    registry->counter("optimizer.scan.searches").increment();
    registry->counter("optimizer.scan.evaluations").add(best.evaluations);
    registry->counter("optimizer.scan.wall_ns")
        .add(obs::monotonic_ns() - start_ns);
  }
  return best;
}

}  // namespace pcn::optimize
