#include "support/oracles.hpp"

#include <cstdio>
#include <limits>

#include "pcn/common/error.hpp"
#include "pcn/costs/partition.hpp"
#include "pcn/linalg/lu.hpp"
#include "pcn/markov/steady_state.hpp"

namespace pcn::proptest {
namespace {

// Widens every normal-approximation band to cover what the exact state
// functional misses: the correlation between a slot's reward noise and the
// chain's next state, and CLT tail error at finite run lengths.  Calibrated
// in docs/testing.md against repeated independent simulator runs.
constexpr double kCorrelationSafety = 1.5;

// The per-bin occupancy test ignores cross-bin correlations (bins sum to
// one), so the summed statistic is only approximately chi-square; the
// acceptance threshold doubles to absorb that.
constexpr double kGofSafety = 2.0;

double dot(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace

std::string to_string(const Band& band) {
  char line[96];
  std::snprintf(line, sizeof line, "%.6f ± %.6f", band.center,
                band.halfwidth);
  return line;
}

double asymptotic_variance(const linalg::Matrix& transition,
                           std::span<const double> pi,
                           std::span<const double> f) {
  const std::size_t n = pi.size();
  PCN_EXPECT(transition.rows() == n && transition.cols() == n &&
                 f.size() == n,
             "asymptotic_variance: dimension mismatch");
  const double mean = dot(pi, f);
  std::vector<double> centered(n);
  for (std::size_t i = 0; i < n; ++i) centered[i] = f[i] - mean;

  // Fundamental-matrix system (I - P + 1 pi) g = f~; nonsingular for an
  // ergodic chain, and the solution automatically satisfies pi g = 0.
  linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a.at(i, j) = (i == j ? 1.0 : 0.0) - transition.at(i, j) + pi[j];
    }
  }
  const std::vector<double> g = linalg::lu_solve(std::move(a), centered);

  double sigma2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sigma2 += pi[i] * (2.0 * centered[i] * g[i] - centered[i] * centered[i]);
  }
  return std::max(sigma2, 0.0);
}

CostBands predicted_cost_bands(const costs::CostModel& model, int threshold,
                               DelayBound bound, std::int64_t slots,
                               double z) {
  PCN_EXPECT(slots > 0, "predicted_cost_bands: slots must be positive");
  const std::size_t n = static_cast<std::size_t>(threshold) + 1;
  const std::vector<double> pi = model.steady_state(threshold);
  const costs::Partition partition = model.partition(threshold, bound);
  const linalg::Matrix transition =
      markov::transition_matrix(model.spec(), threshold);
  const Dimension dim = model.dimension();
  const double update_weight = model.weights().update_cost;
  const double poll_weight = model.weights().poll_cost;
  const double call_prob = model.spec().call();

  // Ring -> subarea index and cells polled when the terminal is found
  // there (the cumulative subarea sizes w_j of eqs. 63-65).
  std::vector<int> subarea_of(n, 0);
  std::vector<double> polled_if_here(n, 0.0);
  double cumulative_cells = 0.0;
  for (int j = 0; j < partition.subarea_count(); ++j) {
    cumulative_cells += static_cast<double>(partition.cell_count(dim, j));
    for (int ring : partition.rings(j)) {
      subarea_of[static_cast<std::size_t>(ring)] = j;
      polled_if_here[static_cast<std::size_t>(ring)] = cumulative_cells;
    }
  }

  // Per-state conditional means and variances of the one-slot rewards.
  // The update reward lives on state d only; its conditional rate is read
  // off the model's own C_u so band centers match the model exactly
  // (including the legacy d = 0 option).
  std::vector<double> update_mean(n, 0.0), update_var(n, 0.0);
  const double boundary_pi = pi[n - 1];
  const double update_rate =
      boundary_pi > 0.0 ? model.update_cost(threshold) /
                              (update_weight * boundary_pi)
                        : 0.0;
  update_mean[n - 1] = update_weight * update_rate;
  update_var[n - 1] =
      update_weight * update_weight * update_rate * (1.0 - update_rate);

  std::vector<double> paging_mean(n), paging_var(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double cost_if_called = poll_weight * polled_if_here[i];
    paging_mean[i] = call_prob * cost_if_called;
    paging_var[i] =
        call_prob * (1.0 - call_prob) * cost_if_called * cost_if_called;
  }

  // Under chain-faithful semantics the update (outward move at d) and the
  // call are competing events, so the total reward's second moment is the
  // sum of the exclusive branches.
  std::vector<double> total_mean(n), total_var(n);
  for (std::size_t i = 0; i < n; ++i) {
    total_mean[i] = update_mean[i] + paging_mean[i];
    const double second_moment =
        update_weight * update_weight * update_rate *
            (i == n - 1 ? 1.0 : 0.0) +
        call_prob * poll_weight * polled_if_here[i] * poll_weight *
            polled_if_here[i];
    total_var[i] = std::max(second_moment - total_mean[i] * total_mean[i],
                            0.0);
  }

  const auto band_for = [&](std::span<const double> mean,
                            std::span<const double> cond_var) {
    const double center = dot(pi, mean);
    const double sigma2 =
        dot(pi, cond_var) + asymptotic_variance(transition, pi, mean);
    return Band{center, z * kCorrelationSafety *
                            std::sqrt(sigma2 / static_cast<double>(slots))};
  };

  CostBands bands;
  bands.update = band_for(update_mean, update_var);
  bands.paging = band_for(paging_mean, paging_var);
  bands.total = band_for(total_mean, total_var);

  // Mean paging delay: a ratio estimator over the ~c*slots call slots.
  // With h_t = 1{call}(D(X_t) - mu) the estimator error is sum(h)/(c*n),
  // and sum(h) gets the same exact-variance treatment as the costs.
  std::vector<double> delay_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    delay_of[i] = static_cast<double>(subarea_of[i] + 1);
  }
  const double mean_delay = dot(pi, delay_of);
  std::vector<double> h_mean(n), h_var(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double centered = delay_of[i] - mean_delay;
    h_mean[i] = call_prob * centered;
    h_var[i] = call_prob * (1.0 - call_prob) * centered * centered;
  }
  const double h_sigma2 =
      dot(pi, h_var) + asymptotic_variance(transition, pi, h_mean);
  bands.expected_calls = call_prob * static_cast<double>(slots);
  bands.delay =
      Band{mean_delay,
           z * kCorrelationSafety *
               std::sqrt(h_sigma2 / static_cast<double>(slots)) / call_prob};
  return bands;
}

std::string GofResult::describe() const {
  char line[96];
  std::snprintf(line, sizeof line, "chi2=%.2f %s %.2f (dof %d)", statistic,
                accepted ? "<=" : ">", critical, dof);
  return line;
}

Band update_rate_band(const markov::ChainSpec& spec, int threshold,
                      std::int64_t slots, double z) {
  PCN_EXPECT(slots > 0, "update_rate_band: slots must be positive");
  const auto n = static_cast<std::size_t>(threshold) + 1;
  const std::vector<double> pi = markov::solve_steady_state(spec, threshold);
  // The update fires on the boundary state only, as a Bernoulli(up(d))
  // draw; its conditional variance and the chain's autocorrelation add.
  std::vector<double> mean(n, 0.0);
  std::vector<double> cond_var(n, 0.0);
  const double up = spec.up(threshold);
  mean[n - 1] = up;
  cond_var[n - 1] = up * (1.0 - up);
  const double sigma2 =
      dot(pi, cond_var) +
      asymptotic_variance(markov::transition_matrix(spec, threshold), pi,
                          mean);
  return Band{dot(pi, mean),
              z * kCorrelationSafety *
                  std::sqrt(sigma2 / static_cast<double>(slots))};
}

GofResult occupancy_goodness_of_fit(const costs::CostModel& model,
                                    int threshold,
                                    const stats::Histogram& occupancy,
                                    double alpha) {
  GofResult result;
  const std::int64_t samples = occupancy.total();
  PCN_EXPECT(samples > 0, "occupancy_goodness_of_fit: empty histogram");
  if (occupancy.max_value() > threshold) {
    // The simulator can never be further than d rings from the network's
    // knowledge center; any such mass is a hard modeling violation.
    result.accepted = false;
    result.statistic = std::numeric_limits<double>::infinity();
    return result;
  }

  const std::vector<double> pi = model.steady_state(threshold);
  const linalg::Matrix transition =
      markov::transition_matrix(model.spec(), threshold);
  const auto n = static_cast<std::size_t>(threshold) + 1;
  std::vector<double> indicator(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double expected_count = pi[i] * static_cast<double>(samples);
    if (expected_count < 10.0) continue;  // normal approximation invalid
    indicator.assign(n, 0.0);
    indicator[i] = 1.0;
    const double sigma2 =
        std::max(asymptotic_variance(transition, pi, indicator), 1e-18);
    const double diff =
        occupancy.fraction(static_cast<int>(i)) - pi[i];
    result.statistic += diff * diff * static_cast<double>(samples) / sigma2;
    ++result.dof;
  }
  result.critical =
      result.dof > 0 ? kGofSafety * chi_square_critical(result.dof, alpha)
                     : 0.0;
  result.accepted = result.dof == 0 || result.statistic <= result.critical;
  return result;
}

double chi_square_critical(int dof, double alpha) {
  PCN_EXPECT(dof >= 1 && alpha > 0.0 && alpha < 1.0,
             "chi_square_critical: need dof >= 1 and alpha in (0,1)");
  // Wilson-Hilferty: (X/k)^(1/3) is approximately normal with mean
  // 1 - 2/(9k) and variance 2/(9k).
  const double k = static_cast<double>(dof);
  const double z = normal_quantile(1.0 - alpha);
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * t * t * t;
}

double normal_quantile(double p) {
  PCN_EXPECT(p > 0.0 && p < 1.0, "normal_quantile: p must be in (0,1)");
  // Acklam's rational approximation (relative error < 1.15e-9).
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace pcn::proptest
