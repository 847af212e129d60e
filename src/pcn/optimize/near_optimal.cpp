#include "pcn/optimize/near_optimal.hpp"

#include "pcn/common/error.hpp"
#include "pcn/markov/chain_spec.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/tsc.hpp"
#include "pcn/optimize/exhaustive.hpp"

namespace pcn::optimize {

Optimum near_optimal_search(const costs::CostModel& exact_model,
                            DelayBound bound, int max_threshold,
                            bool use_published_approximation,
                            obs::MetricsRegistry* registry) {
  PCN_EXPECT(max_threshold >= 0,
             "near_optimal_search: max_threshold must be >= 0");
  const std::int64_t start_ns =
      registry != nullptr ? obs::monotonic_ns() : 0;

  costs::CostModelOptions search_options = exact_model.options();
  if (use_published_approximation) {
    search_options.legacy_d0_generic_update_rate = true;
  }
  const bool two_dim = exact_model.dimension() == Dimension::kTwoD;
  const costs::CostModel search_model =
      two_dim ? costs::CostModel(markov::ChainSpec::two_dim_approx(
                                     exact_model.spec().profile()),
                                 exact_model.weights(), search_options)
              : costs::CostModel(exact_model.spec(), exact_model.weights(),
                                 search_options);

  Optimum near = exhaustive_search(search_model, bound, max_threshold,
                                   registry);

  // Paper §7 correction: a spurious d' = 0 can double the cost when the
  // true optimum is 1; check the exact costs of 0 and 1 and promote.
  bool corrected = false;
  if (near.threshold == 0 && max_threshold >= 1) {
    const double exact_c0 = exact_model.total_cost(0, bound);
    const double exact_c1 = exact_model.total_cost(1, bound);
    near.evaluations += 2;
    if (exact_c1 < exact_c0) {
      near.threshold = 1;
      corrected = true;
    }
  }

  near.total_cost = exact_model.total_cost(near.threshold, bound);
  ++near.evaluations;
  if (registry != nullptr) {
    registry->counter("optimizer.near.searches").increment();
    registry->counter("optimizer.near.evaluations").add(near.evaluations);
    if (corrected) registry->counter("optimizer.near.corrections").increment();
    registry->counter("optimizer.near.wall_ns")
        .add(obs::monotonic_ns() - start_ns);
  }
  return near;
}

}  // namespace pcn::optimize
