// Validation D: analytical model vs discrete-event simulation.
//
// For a grid of (geometry, q, c, d, m) scenarios, runs the PCN simulator
// under both slot semantics and reports the measured per-slot update and
// paging costs next to the Markov-chain predictions C_u(d) and C_v(d, m),
// plus the measured mean paging delay vs the partition's prediction.
//
// Each measurement is checked against the statistical oracle's z = 4
// acceptance band (tests/support/oracles.hpp) — the same bands the
// asserting tests/integration/test_sim_validation.cpp gates on — and is
// flagged `OUT` when it falls outside.  2-D scenarios and independent
// semantics get the documented modeling-gap slacks on top (see
// docs/testing.md).
#include <cstdio>
#include <string>

#include "pcn/costs/cost_model.hpp"
#include "pcn/obs/bench_report.hpp"
#include "pcn/obs/tsc.hpp"
#include "pcn/sim/network.hpp"
#include "support/oracles.hpp"

namespace {

constexpr pcn::CostWeights kWeights{100.0, 10.0};
constexpr std::int64_t kSlots = 500000;
constexpr double kZ = 4.0;

struct Scenario {
  pcn::Dimension dim;
  double q;
  double c;
  int d;
  int m;
};

struct Tally {
  std::int64_t in_band = 0;
  std::int64_t out_of_band = 0;

  const char* verdict(const pcn::proptest::Band& band, double measured) {
    const bool inside = band.contains(measured);
    (inside ? in_band : out_of_band) += 1;
    return inside ? "in " : "OUT";
  }
};

void run(const Scenario& s, pcn::obs::BenchReport& report, Tally& tally) {
  const pcn::MobilityProfile profile{s.q, s.c};
  const pcn::DelayBound bound(s.m);
  const pcn::costs::CostModel model =
      pcn::costs::CostModel::exact(s.dim, profile, kWeights);
  const pcn::proptest::CostBands bands = pcn::proptest::predicted_cost_bands(
      model, s.d, bound, kSlots, kZ);

  std::printf("  %s q=%.3f c=%.3f d=%d m=%d\n", to_string(s.dim).c_str(),
              s.q, s.c, s.d, s.m);
  std::printf("    predicted : C_u=%7.4f C_v=%7.4f C_T=%7.4f delay=%5.3f\n",
              bands.update.center, bands.paging.center, bands.total.center,
              bands.delay.center);

  const double ring_slack = s.dim == pcn::Dimension::kOneD ? 0.0
                                                           : 0.03 + 0.25 * s.q;
  for (const auto semantics : {pcn::sim::SlotSemantics::kChainFaithful,
                               pcn::sim::SlotSemantics::kIndependent}) {
    pcn::sim::Network network(
        pcn::sim::NetworkConfig{s.dim, semantics, 0xd1ce}, kWeights);
    const pcn::sim::TerminalId id = network.add_terminal(
        pcn::sim::make_distance_terminal(s.dim, profile, s.d, bound));
    network.run(kSlots);
    const pcn::sim::TerminalMetrics& metrics = network.metrics(id);

    const bool chain =
        semantics == pcn::sim::SlotSemantics::kChainFaithful;
    const double slack =
        ring_slack + (chain ? 0.0 : 0.05 + 3.0 * s.q * s.c);
    const pcn::proptest::Band total = bands.total.widened(slack);
    std::printf(
        "    %-10s: C_u=%7.4f [%s] C_v=%7.4f [%s] C_T=%7.4f [%s] "
        "delay=%5.3f [%s]  (band C_T %s)\n",
        chain ? "chain" : "indep", metrics.update_cost_per_slot(),
        tally.verdict(bands.update.widened(slack),
                      metrics.update_cost_per_slot()),
        metrics.paging_cost_per_slot(),
        tally.verdict(bands.paging.widened(slack),
                      metrics.paging_cost_per_slot()),
        metrics.cost_per_slot(),
        tally.verdict(total, metrics.cost_per_slot()),
        metrics.paging_cycles.mean(),
        tally.verdict(bands.delay.widened(slack),
                      metrics.paging_cycles.mean()),
        to_string(total).c_str());
    report
        .add_row(std::string(s.dim == pcn::Dimension::kOneD ? "1d" : "2d") +
                 "/q=" + std::to_string(s.q) + "/c=" + std::to_string(s.c) +
                 "/d=" + std::to_string(s.d) + "/m=" + std::to_string(s.m) +
                 "/" + (chain ? "chain" : "indep"))
        .set("predicted_total", bands.total.center)
        .set("measured_total", metrics.cost_per_slot())
        .set("predicted_delay", bands.delay.center)
        .set("measured_delay", metrics.paging_cycles.mean())
        .set("total_in_band",
             std::int64_t{total.contains(metrics.cost_per_slot()) ? 1 : 0});
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  pcn::obs::BenchReport report("sim_validation");
  Tally tally;
  std::printf("Validation D: Markov-chain model vs discrete-event "
              "simulation (%lld slots per run, U = %.0f, V = %.0f, "
              "z = %.0f bands)\n\n",
              static_cast<long long>(kSlots), kWeights.update_cost,
              kWeights.poll_cost, kZ);
  const Scenario scenarios[] = {
      {pcn::Dimension::kOneD, 0.05, 0.01, 3, 1},
      {pcn::Dimension::kOneD, 0.05, 0.01, 5, 3},
      {pcn::Dimension::kOneD, 0.3, 0.02, 6, 2},
      {pcn::Dimension::kTwoD, 0.05, 0.01, 1, 1},
      {pcn::Dimension::kTwoD, 0.05, 0.01, 2, 3},
      {pcn::Dimension::kTwoD, 0.3, 0.02, 4, 2},
      {pcn::Dimension::kTwoD, 0.5, 0.005, 6, 3},
  };
  for (const Scenario& s : scenarios) run(s, report, tally);
  std::printf("Reading: chain-faithful runs carry only Monte-Carlo noise "
              "(plus the iso-distance chain approximation in 2-D); "
              "independent semantics adds the O(q*c) modeling gap.  "
              "tests/integration/test_sim_validation.cpp asserts these "
              "verdicts.\n");
  report
      .set("scenarios",
           static_cast<int>(sizeof(scenarios) / sizeof(scenarios[0])))
      .set("slots_per_run", kSlots)
      .set("in_band", tally.in_band)
      .set("out_of_band", tally.out_of_band)
      .set("wall_seconds",
           static_cast<double>(pcn::obs::monotonic_ns() - start_ns) * 1e-9);
  report.emit();
  return 0;
}
