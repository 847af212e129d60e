// Statistical oracles for the simulator-vs-Markov differential suites.
//
// A chain-faithful simulation run is a stationary Markov reward process,
// so the sampling error of its time-averaged metrics follows a CLT whose
// variance constant is computable *exactly* from the chain itself: for a
// per-state reward f the asymptotic variance is
//
//   sigma^2 = pi(2 f~ g - f~^2),   (I - P + 1 pi) g = f~,   f~ = f - pi f
//
// (the fundamental-matrix / Poisson-equation form; the dense LU substrate
// solves the (d+1)-state system).  `predicted_cost_bands` turns that into
// normal-approximation acceptance bands for the measured per-slot update
// cost, paging cost, total cost, and mean paging delay of a `slots`-slot
// run — the bands an asserting validation compares the simulator against.
//
// What is *not* exact: the per-slot reward also depends on the slot's
// event draw (not just the state), and the draw that pays a reward is the
// draw that moves the chain, so reward noise and the next state are
// correlated.  The conditional-variance term below treats that noise as
// independent; kCorrelationSafety widens every band to cover the neglected
// cross term (see docs/testing.md for the derivation and calibration).
//
// `occupancy_goodness_of_fit` is a chi-square-style test of the empirical
// ring-distance occupancy against p_{i,d}, with each bin normalized by its
// exact autocorrelation-aware variance rather than the iid multinomial
// one (per-slot samples of the chain are strongly correlated).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pcn/costs/cost_model.hpp"
#include "pcn/linalg/matrix.hpp"
#include "pcn/markov/chain_spec.hpp"
#include "pcn/stats/histogram.hpp"

namespace pcn::proptest {

/// Two-sided acceptance band `center ± halfwidth`.
struct Band {
  double center = 0.0;
  double halfwidth = 0.0;

  double lo() const { return center - halfwidth; }
  double hi() const { return center + halfwidth; }

  /// Containment with a float-rounding guard: a degenerate band (zero
  /// halfwidth, e.g. the delay with m = 1 cycle) must still accept a
  /// measurement that equals the center up to summation order.
  bool contains(double x) const {
    const double eps = 1e-12 * (std::abs(center) + 1.0);
    return x >= lo() - eps && x <= hi() + eps;
  }

  /// Band with `rel` of |center| added to the halfwidth — the modeling
  /// slack used when the chain is only approximate (independent slot
  /// semantics).
  Band widened(double rel) const {
    return Band{center, halfwidth + rel * std::abs(center)};
  }
};

std::string to_string(const Band& band);

/// Exact CLT variance constant of the running mean of the per-state
/// function `f` over the stationary chain `transition` (row-stochastic,
/// stationary distribution `pi`): Var(mean over n slots) ~ result / n.
double asymptotic_variance(const linalg::Matrix& transition,
                           std::span<const double> pi,
                           std::span<const double> f);

struct CostBands {
  Band update;   ///< measured update cost per slot vs C_u(d)
  Band paging;   ///< measured paging cost per slot vs C_v(d, m)
  Band total;    ///< measured total cost per slot vs C_T(d, m)
  Band delay;    ///< measured mean paging delay (cycles) vs the partition
  double expected_calls = 0.0;  ///< c * slots (delay-band sample size)
};

/// Acceptance bands at `z` standard errors for a chain-faithful simulation
/// of (threshold, bound) totalling `slots` stationary slots (one terminal,
/// or the sum over an independent fleet).  Band centers equal the model's
/// own predictions exactly.
CostBands predicted_cost_bands(const costs::CostModel& model, int threshold,
                               DelayBound bound, std::int64_t slots, double z);

/// Acceptance band at `z` standard errors for the per-slot location-update
/// rate of `slots` stationary slots of the walk `spec` describes, updating
/// on the outward move from ring `threshold` and restarting at ring 0
/// (the chain's own update rule, with calls leaving the walk alone when
/// spec.call() is 0).  Center pi_threshold * up(threshold).
Band update_rate_band(const markov::ChainSpec& spec, int threshold,
                      std::int64_t slots, double z);

struct GofResult {
  double statistic = 0.0;
  int dof = 0;            ///< bins with enough mass to be tested
  double critical = 0.0;  ///< acceptance threshold the statistic was held to
  bool accepted = true;

  std::string describe() const;  ///< "chi2=3.21 <= 41.2 (dof 7)" one-liner
};

/// Tests the empirical ring-distance occupancy of a chain-faithful run
/// against the chain's steady state at tail probability `alpha`.  Bins
/// with expected count < 10 are skipped (normal approximation invalid);
/// any occupancy mass beyond the threshold distance is an automatic fail.
GofResult occupancy_goodness_of_fit(const costs::CostModel& model,
                                    int threshold,
                                    const stats::Histogram& occupancy,
                                    double alpha);

/// Upper critical value of the chi-square distribution with `dof` degrees
/// of freedom at tail probability `alpha` (Wilson-Hilferty approximation).
double chi_square_critical(int dof, double alpha);

/// Inverse standard-normal CDF (Acklam's rational approximation).
double normal_quantile(double p);

}  // namespace pcn::proptest
