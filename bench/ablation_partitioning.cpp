// Ablation A: residing-area partitioning schemes (the paper's §8 "an
// optimal method for partitioning the residing area should be developed").
//
// Compares, at each scheme's own optimal threshold, the paper's SDF
// equal-split rule against the DP-optimal contiguous partition and the
// highest-probability-first ordering, across the Table-1/2 U sweep.
// Reported: total cost C_T and the relative saving over SDF.
#include <cstdio>
#include <string>
#include <vector>

#include "pcn/costs/cost_model.hpp"
#include "pcn/obs/bench_report.hpp"
#include "pcn/obs/tsc.hpp"
#include "pcn/optimize/exhaustive.hpp"

namespace {

constexpr pcn::MobilityProfile kProfile{0.05, 0.01};
constexpr double kPollCost = 10.0;
constexpr int kMaxThreshold = 80;

double optimal_cost(pcn::Dimension dim, double update_cost,
                    pcn::costs::PartitionScheme scheme,
                    const pcn::DelayBound& bound, int* threshold_out) {
  pcn::costs::CostModelOptions options;
  options.scheme = scheme;
  const pcn::costs::CostModel model = pcn::costs::CostModel::exact(
      dim, kProfile, pcn::CostWeights{update_cost, kPollCost}, options);
  const pcn::optimize::Optimum optimum =
      pcn::optimize::exhaustive_search(model, bound, kMaxThreshold);
  if (threshold_out != nullptr) *threshold_out = optimum.threshold;
  return optimum.total_cost;
}

void print_panel(pcn::Dimension dim, int delay,
                 pcn::obs::BenchReport& report, double* best_saving) {
  const pcn::DelayBound bound(delay);
  std::printf("  %s model, m = %d\n", to_string(dim).c_str(), delay);
  std::printf("      U | SDF d*,C_T    | DP-opt d*,C_T (save)   | "
              "HPF d*,C_T (save)\n");
  std::printf("  ------+---------------+------------------------+"
              "------------------------\n");
  for (double update_cost : {10.0, 50.0, 100.0, 300.0, 1000.0}) {
    int d_sdf = 0;
    int d_dp = 0;
    int d_hpf = 0;
    const double sdf = optimal_cost(dim, update_cost,
                                    pcn::costs::PartitionScheme::kSdfEqual,
                                    bound, &d_sdf);
    const double dp = optimal_cost(
        dim, update_cost, pcn::costs::PartitionScheme::kOptimalContiguous,
        bound, &d_dp);
    const double hpf = optimal_cost(
        dim, update_cost,
        pcn::costs::PartitionScheme::kHighestProbabilityFirst, bound,
        &d_hpf);
    const double dp_saving = 100.0 * (sdf - dp) / sdf;
    const double hpf_saving = 100.0 * (sdf - hpf) / sdf;
    if (dp_saving > *best_saving) *best_saving = dp_saving;
    if (hpf_saving > *best_saving) *best_saving = hpf_saving;
    report
        .add_row(std::string(dim == pcn::Dimension::kOneD ? "1d" : "2d") +
                 "/m=" + std::to_string(delay) +
                 "/U=" + std::to_string(static_cast<int>(update_cost)))
        .set("sdf_d", d_sdf)
        .set("sdf_cost", sdf)
        .set("dp_d", d_dp)
        .set("dp_cost", dp)
        .set("dp_saving_pct", dp_saving)
        .set("hpf_d", d_hpf)
        .set("hpf_cost", hpf)
        .set("hpf_saving_pct", hpf_saving);
    std::printf(
        "  %5.0f | %2d  %8.4f | %2d  %8.4f (%5.2f%%) | %2d  %8.4f "
        "(%5.2f%%)\n",
        update_cost, d_sdf, sdf, d_dp, dp, dp_saving, d_hpf, hpf,
        hpf_saving);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  pcn::obs::BenchReport report("ablation_partitioning");
  double best_saving = 0.0;
  std::printf("Ablation A: partitioning schemes at each scheme's optimal "
              "threshold\n");
  std::printf("  c = %.3f, q = %.3f, V = %.0f\n\n", kProfile.call_prob,
              kProfile.move_prob, kPollCost);
  for (int delay : {2, 3, 5}) {
    print_panel(pcn::Dimension::kOneD, delay, report, &best_saving);
    print_panel(pcn::Dimension::kTwoD, delay, report, &best_saving);
  }
  std::printf("Reading: DP-opt >= 0%% saving by construction; HPF helps when "
              "ring mass is non-monotone (it may equal SDF otherwise).\n");
  report.set("delays", 3)
      .set("best_saving_pct", best_saving)
      .set("wall_seconds",
           static_cast<double>(pcn::obs::monotonic_ns() - start_ns) * 1e-9);
  report.emit();
  return 0;
}
