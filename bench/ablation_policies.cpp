// Ablation C: location-update policy families, measured in the
// discrete-event PCN simulation.
//
// The paper's related-work section compares distance-based updating against
// time-based and movement-based schemes [3] and the static location-area
// scheme [8].  This bench makes that comparison executable: each policy is
// given its own tuned parameter (best of a small grid, to be fair), then
// run for the same number of slots, and the measured per-slot cost is
// reported next to the optimal distance-based plan.
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "pcn/baselines/baseline_models.hpp"
#include "pcn/core/location_manager.hpp"
#include "pcn/obs/bench_report.hpp"
#include "pcn/obs/tsc.hpp"
#include "pcn/sim/network.hpp"

namespace {

constexpr pcn::CostWeights kWeights{100.0, 10.0};
constexpr std::int64_t kSlots = 400000;
constexpr std::uint64_t kSeed = 2025;

struct Measured {
  double cost = 0.0;
  double mean_delay = 0.0;
  int max_delay = 0;
};

Measured measure_full(pcn::Dimension dim, pcn::sim::TerminalSpec spec) {
  pcn::sim::Network network(
      pcn::sim::NetworkConfig{dim, pcn::sim::SlotSemantics::kChainFaithful,
                              kSeed},
      kWeights);
  const pcn::sim::TerminalId id = network.add_terminal(std::move(spec));
  network.run(kSlots);
  const pcn::sim::TerminalMetrics& m = network.metrics(id);
  return Measured{m.cost_per_slot(),
                  m.calls ? m.paging_cycles.mean() : 0.0,
                  m.calls ? m.paging_cycles.max_value() : 0};
}

double measure(pcn::Dimension dim, pcn::sim::TerminalSpec spec) {
  return measure_full(dim, std::move(spec)).cost;
}

template <typename MakeSpec>
double best_of(pcn::Dimension dim, const std::vector<int>& grid,
               int* best_param, MakeSpec make_spec) {
  double best = std::numeric_limits<double>::infinity();
  for (int param : grid) {
    const double cost = measure(dim, make_spec(param));
    if (cost < best) {
      best = cost;
      *best_param = param;
    }
  }
  return best;
}

void run_panel(pcn::Dimension dim, pcn::MobilityProfile profile,
               pcn::obs::BenchReport& report) {
  const pcn::DelayBound bound(3);
  std::printf("  %s model, q = %.3f, c = %.3f, m = 3\n",
              to_string(dim).c_str(), profile.move_prob, profile.call_prob);

  // Distance-based at the analytically optimal threshold, plus an
  // unbounded-delay variant for a delay-fair comparison with the
  // expanding-ring time-based scheme.
  const pcn::core::LocationManager manager(dim, profile, kWeights);
  const pcn::core::LocationPlan plan = manager.plan(bound);
  const Measured distance = measure_full(dim, manager.make_terminal_spec(plan));
  const double distance_cost = distance.cost;
  const pcn::core::LocationPlan unbounded_plan =
      manager.plan(pcn::DelayBound::unbounded());
  const Measured distance_unbounded =
      measure_full(dim, manager.make_terminal_spec(unbounded_plan));

  int best_m = 0;
  const double movement_cost =
      best_of(dim, {2, 3, 5, 8, 12, 20}, &best_m, [&](int max_moves) {
        return pcn::sim::make_movement_terminal(dim, profile, max_moves,
                                                bound);
      });
  const Measured movement = measure_full(
      dim, pcn::sim::make_movement_terminal(dim, profile, best_m, bound));

  int best_t = 0;
  const double time_cost =
      best_of(dim, {10, 25, 50, 100, 200, 400}, &best_t, [&](int period) {
        return pcn::sim::make_time_terminal(dim, profile, period);
      });
  const Measured timed = measure_full(
      dim, pcn::sim::make_time_terminal(dim, profile, best_t));

  int best_r = 0;
  const double la_cost =
      best_of(dim, {1, 2, 3, 5, 8}, &best_r, [&](int radius) {
        return pcn::sim::make_la_terminal(dim, profile, radius);
      });
  const Measured la = measure_full(
      dim, pcn::sim::make_la_terminal(dim, profile, best_r));

  auto row = [&](const char* label, const Measured& m, double baseline) {
    std::printf("    %-29s: %8.4f  (%+6.1f%%)  delay mean %4.2f max %2d\n",
                label, m.cost, 100.0 * (m.cost - baseline) / baseline,
                m.mean_delay, m.max_delay);
  };
  std::printf("    %-29s: %8.4f  (plan %8.4f)  delay mean %4.2f max %2d\n",
              ("distance (d* = " + std::to_string(plan.threshold) +
               ", m <= 3)").c_str(),
              distance.cost, plan.expected_total(), distance.mean_delay,
              distance.max_delay);
  const double movement_predicted =
      pcn::baselines::movement_based_costs(dim, profile, kWeights, best_m,
                                           bound)
          .total();
  row(("movement (best M = " + std::to_string(best_m) + ", m <= 3)").c_str(),
      movement, distance_cost);
  std::printf("      analytic model predicts %8.4f\n", movement_predicted);
  row(("LA (best R = " + std::to_string(best_r) + ", 1 cycle)").c_str(), la,
      distance_cost);
  std::printf("    -- delay-unconstrained schemes --\n");
  row(("distance (d* = " + std::to_string(unbounded_plan.threshold) +
       ", unbounded)").c_str(),
      distance_unbounded, distance_cost);
  const double time_predicted =
      pcn::baselines::time_based_costs(dim, profile, kWeights, best_t)
          .total();
  row(("time (best T = " + std::to_string(best_t) + ", unbounded)").c_str(),
      timed, distance_cost);
  std::printf("      analytic model predicts %8.4f\n", time_predicted);
  (void)movement_cost;
  (void)time_cost;
  (void)la_cost;
  report
      .add_row(std::string(dim == pcn::Dimension::kOneD ? "1d" : "2d") +
               "/q=" + std::to_string(profile.move_prob))
      .set("distance_cost", distance.cost)
      .set("distance_d", plan.threshold)
      .set("movement_cost", movement.cost)
      .set("movement_m", best_m)
      .set("time_cost", timed.cost)
      .set("time_t", best_t)
      .set("la_cost", la.cost)
      .set("la_r", best_r);
  std::printf("\n");
}

}  // namespace

int main() {
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  pcn::obs::BenchReport report("ablation_policies");
  std::printf("Ablation C: update-policy families (simulated, %lld slots, "
              "U = %.0f, V = %.0f)\n\n",
              static_cast<long long>(kSlots), kWeights.update_cost,
              kWeights.poll_cost);
  run_panel(pcn::Dimension::kTwoD, pcn::MobilityProfile{0.05, 0.01}, report);
  run_panel(pcn::Dimension::kTwoD, pcn::MobilityProfile{0.3, 0.01}, report);
  run_panel(pcn::Dimension::kOneD, pcn::MobilityProfile{0.05, 0.01}, report);
  std::printf("Reading: among delay-bounded schemes distance-based wins; "
              "time-based can look cheap only because its expanding-ring "
              "paging takes unbounded delay — compare it against the "
              "unbounded-delay distance row, which beats it.\n");
  report.set("panels", 3)
      .set("slots", kSlots)
      .set("wall_seconds",
           static_cast<double>(pcn::obs::monotonic_ns() - start_ns) * 1e-9);
  report.emit();
  return 0;
}
