// sim_fleet: Network::run over a canonical 2-D distance-update fleet.
//
// 250k terminals with the paper's profile (q 0.1, c 0.02, U/V
// 100/10) and the optimal threshold d* that optimize::exhaustive_search
// finds for delay bound m = 3, run by the default SimEngine::kAuto on 2
// threads.  The timed window runs the fleet in batches of kBatchSlots
// slots, one Network::run call each: a call's verdict is available when
// the run that simulated its slot returns, so its verdict latency is the
// rest of that batch's wall time after its slot, taking the slots of a
// batch to progress evenly (slot k of B waits (B - k) / B of the batch).
//
// Correctness: the window's measured cost per terminal-slot must fall
// within a sample-size band of the analytic C_T(d*, m) (see
// kBandSigmas and the 2-D ring-approximation slack below).
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common.hpp"
#include "pcn/costs/cost_model.hpp"
#include "pcn/optimize/exhaustive.hpp"
#include "pcn/sim/network.hpp"

namespace perfbench {
namespace {

/// 250k rather than 1M: at 1M one 512-slot batch took
/// 2.5-3.5 s, so a run held a handful of batches and their median moved
/// by a quarter between runs on a shared host.  At 250k a batch takes a
/// third of a second and a run holds dozens.
constexpr std::int64_t kTerminals = 250'000;
constexpr int kThreads = 2;
constexpr pcn::MobilityProfile kProfile{0.1, 0.02};
constexpr pcn::CostWeights kWeights{100.0, 10.0};
constexpr int kDelayCycles = 3;
constexpr int kMaxThreshold = 50;  ///< the paper's search cap D
constexpr int kSetupReps = 5;
/// Warm-up before the window, so terminals start from the chain's
/// steady state rather than from their registration cell.
constexpr std::int64_t kWarmupSlots = 64;
/// Slots per Network::run call.  Every call re-prepares the engine and
/// touches each terminal's heap-held metrics once, about 0.24 us per
/// terminal: a sixth of a 256-slot batch's time.
constexpr std::int64_t kBatchSlots = 256;
/// Band half-width in standard errors of the fleet mean, plus the 2-D
/// ring-approximation slack 0.03 + 0.25 q that the repository's
/// sim-vs-chain suites use for the same gap (docs/testing.md).
constexpr double kBandSigmas = 6.0;
/// Fewest batches an instance runs, however short --seconds is.
constexpr int kMinBatches = 3;

struct Fleet {
  std::unique_ptr<pcn::sim::Network> network;
  int threshold = 0;
  double expected_cost = 0.0;
  double optimize_us = 0.0;
  double add_terminal_us = 0.0;
  double first_run_s = 0.0;
};

/// Set-up as a user pays it: the d* search, attaching the fleet, and the
/// first run (engine selection and prepare, plus one slot).
Fleet build_fleet(std::uint64_t seed) {
  Fleet fleet;
  std::int64_t start = now_ns();
  const auto model = pcn::costs::CostModel::exact(pcn::Dimension::kTwoD,
                                                  kProfile, kWeights);
  const pcn::optimize::Optimum optimum = pcn::optimize::exhaustive_search(
      model, pcn::DelayBound(kDelayCycles), kMaxThreshold);
  fleet.threshold = optimum.threshold;
  fleet.expected_cost = optimum.total_cost;
  fleet.optimize_us = double(now_ns() - start) * 1e-3;

  pcn::sim::NetworkConfig config;
  config.dimension = pcn::Dimension::kTwoD;
  config.seed = seed;
  config.threads = kThreads;
  start = now_ns();
  fleet.network = std::make_unique<pcn::sim::Network>(config, kWeights);
  for (std::int64_t i = 0; i < kTerminals; ++i) {
    fleet.network->add_terminal(pcn::sim::make_distance_terminal(
        pcn::Dimension::kTwoD, kProfile, fleet.threshold,
        pcn::DelayBound(kDelayCycles)));
  }
  fleet.add_terminal_us = double(now_ns() - start) * 1e-3 / double(kTerminals);

  start = now_ns();
  fleet.network->run(1);
  fleet.first_run_s = double(now_ns() - start) * 1e-9;
  return fleet;
}

/// Fleet totals at one point in time.
struct Totals {
  std::vector<double> cost;  ///< per terminal, update + paging cost
  double calls = 0, updates = 0, polled = 0, failures = 0;
  std::vector<double> cycles;  ///< calls located in cycle k (index k)
};

Totals totals(const pcn::sim::Network& network) {
  Totals out;
  out.cost.resize(static_cast<std::size_t>(kTerminals));
  out.cycles.assign(kDelayCycles + 2, 0.0);
  for (std::int64_t i = 0; i < kTerminals; ++i) {
    const pcn::sim::TerminalMetrics& m =
        network.metrics(static_cast<pcn::sim::TerminalId>(i));
    out.cost[static_cast<std::size_t>(i)] = m.total_cost();
    out.calls += double(m.calls);
    out.updates += double(m.updates);
    out.polled += double(m.polled_cells);
    out.failures += double(m.paging_failures);
    for (int k = 0; k <= kDelayCycles + 1; ++k) {
      out.cycles[static_cast<std::size_t>(k)] += double(m.paging_cycles.count(k));
    }
  }
  return out;
}

double total(const std::vector<double>& values) {
  double out = 0.0;
  for (double v : values) out += v;
  return out;
}

/// One verdict latency per simulated slot: a batch's slot k (of
/// kBatchSlots) waits (kBatchSlots - k) / kBatchSlots of the batch's time.
std::vector<double> slot_verdict_ms(const std::vector<double>& batch_ms) {
  std::vector<double> out;
  out.reserve(batch_ms.size() * static_cast<std::size_t>(kBatchSlots));
  for (double ms : batch_ms) {
    for (std::int64_t k = 0; k < kBatchSlots; ++k) {
      out.push_back(ms * double(kBatchSlots - k) / double(kBatchSlots));
    }
  }
  return out;
}

const char* engine_name(const pcn::sim::Network& network) {
  if (network.simd_active()) return "simd";
  if (network.soa_active()) return "soa";
  return "reference";
}

}  // namespace

int run_sim_fleet(const Options& options, Report* report) {
  // The window is spread over every set-up instance: batch times move with
  // where an instance's memory landed (about +-7% between instances of one
  // process), and totals over several instances steady the figure.
  // The cost check and the counts use the last instance.
  const int reps = options.trace ? 1 : kSetupReps;
  // Each instance runs batches for its share of --seconds, at least
  // kMinBatches of them.
  const std::int64_t window_ns =
      std::int64_t(options.seconds) * 1'000'000'000 / reps;
  Fleet fleet;
  std::vector<double> setup_s;
  std::vector<double> batch_ms;
  std::vector<double> batch_cpu_s;
  Totals before;
  int per_instance = 0;
  for (int rep = 0; rep < reps; ++rep) {
    fleet = Fleet{};
    const std::int64_t start = now_ns();
    fleet = build_fleet(options.seed);
    setup_s.push_back(double(now_ns() - start) * 1e-9);
    fleet.network->run(kWarmupSlots);
    if (rep + 1 == reps) before = totals(*fleet.network);
    const std::int64_t window_start = now_ns();
    per_instance = 0;
    while (per_instance < kMinBatches || now_ns() - window_start < window_ns) {
      const double cpu_before = process_cpu_s();
      const std::int64_t batch_start = now_ns();
      fleet.network->run(kBatchSlots);
      batch_ms.push_back(double(now_ns() - batch_start) * 1e-6);
      batch_cpu_s.push_back(process_cpu_s() - cpu_before);
      ++per_instance;
    }
  }
  pcn::sim::Network& network = *fleet.network;
  const Totals after = totals(network);
  const auto batches = static_cast<std::int64_t>(per_instance);
  report->note(format("sim_fleet: %lld terminals, d* %d for m %d, engine %s, "
                      "%d threads, %d instance%s x %d batches",
                      static_cast<long long>(kTerminals), fleet.threshold,
                      kDelayCycles, engine_name(network), kThreads, reps,
                      reps == 1 ? "" : "s", per_instance));

  // --- correctness: measured cost vs the analytic C_T(d*, m) -------------
  const std::int64_t slots = batches * kBatchSlots;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < after.cost.size(); ++i) {
    const double per_slot = (after.cost[i] - before.cost[i]) / double(slots);
    sum += per_slot;
    sum_sq += per_slot * per_slot;
  }
  const double n = double(kTerminals);
  const double cost = sum / n;
  const double sd = std::sqrt(std::max(0.0, sum_sq / n - cost * cost));
  const double band = kBandSigmas * sd / std::sqrt(n) +
                      (0.03 + 0.25 * kProfile.move_prob) * fleet.expected_cost;
  const double rel_err = (cost - fleet.expected_cost) / fleet.expected_cost;
  report->check(std::fabs(cost - fleet.expected_cost) <= band,
                format("cost per terminal-slot %.5f within %.5f of C_T(%d, "
                       "%d) = %.5f",
                       cost, band, fleet.threshold, kDelayCycles,
                       fleet.expected_cost));

  const double calls = after.calls - before.calls;
  const double failures = after.failures - before.failures;
  const double frames = calls + (after.updates - before.updates);
  std::vector<double> cycles(after.cycles.size());
  for (std::size_t k = 0; k < cycles.size(); ++k) {
    cycles[k] = after.cycles[k] - before.cycles[k];
  }
  // p99 of the cycles-to-locate distribution (cycles are 1-based).
  double cycle_p99 = 0.0;
  double seen = 0.0;
  for (std::size_t k = 0; k < cycles.size() && cycle_p99 == 0.0; ++k) {
    seen += cycles[k];
    if (seen >= 0.99 * calls) cycle_p99 = double(k);
  }
  report->check(calls > 0 && cycles.back() == 0.0,
                format("%.0f calls, every one located within m = %d cycles",
                       calls, kDelayCycles));
  report->attempted = static_cast<std::int64_t>(calls);
  report->failed = static_cast<std::int64_t>(failures);

  // Throughput and CPU cost are totals over every batch, and latency
  // quantiles are over every slot of every batch.  Batch times on a shared
  // host run in phases of several seconds about 25% apart; a median over
  // whole batches jumps between the phases, while totals and the
  // per-slot spread move with the share of time spent in each.
  const std::vector<double> verdict_ms = slot_verdict_ms(batch_ms);
  const double window_s = total(batch_ms) * 1e-3;
  const double window_cpu_s = total(batch_cpu_s);
  const double frames_per_batch = frames / double(batches);
  report->metric("setup_s", median(setup_s), "s");
  report->metric("peak_rss_mb", proc_peak_rss_mb(0), "MB");
  report->metric("verdict_p50_ms", median(verdict_ms), "ms");
  report->metric("verdict_p90_ms", quantile(verdict_ms, 0.90), "ms");
  report->metric("cpu_us_per_frame",
                 window_cpu_s * 1e6 /
                     (frames_per_batch * double(batch_cpu_s.size())),
                 "us");
  report->metric("success_share", (calls - failures) / calls, "share");
  report->metric("terminal_slots_per_s",
                 double(batch_ms.size()) * double(kBatchSlots) * n / window_s,
                 "1/s");
  report->metric("verdict_delay_p99_slots", cycle_p99, "slots");
  report->note(format("verdict latency: %zu batches of %lld slots (%.0f calls "
                      "in the last instance's); slot k of a batch waits "
                      "(B - k) / B of it; batch ms min %.1f p50 %.1f max %.1f",
                      batch_ms.size(), static_cast<long long>(kBatchSlots),
                      calls, quantile(batch_ms, 0.0), median(batch_ms),
                      quantile(batch_ms, 1.0)));
  if (!options.trace) return 0;

  // --- per layer ---------------------------------------------------------
  // The sim's spans (d* search, add_terminal, first run) sit in set-up, so
  // trace_overhead_pct compares two untouched halves: its noise floor.
  const double engine_id =
      network.simd_active() ? 2.0 : (network.soa_active() ? 1.0 : 0.0);
  const auto half = batch_ms.begin() + std::ptrdiff_t(batch_ms.size() / 2);
  const double untraced = mean(std::vector<double>(batch_ms.begin(), half));
  const double traced = mean(std::vector<double>(half, batch_ms.end()));
  report->metric("sim.engine_id", engine_id, "id");
  report->metric("sim.first_run_s", fleet.first_run_s, "s");
  report->metric("sim.add_terminal_us", fleet.add_terminal_us, "us");
  report->metric("sim.cost_per_slot", cost, "cost");
  report->metric("costs.expected_cost_per_slot", fleet.expected_cost, "cost");
  report->metric("sim.cost_rel_err", std::fabs(rel_err), "share");
  report->metric("sim.polled_cells_per_call",
                 (after.polled - before.polled) / calls, "cells");
  report->metric("optimize.plan_us", fleet.optimize_us, "us");
  report->metric("fail_share", failures / calls, "share");
  report->metric("verdict.samples", calls, "count");
  report->metric("verdict_p99_ms", quantile(verdict_ms, 0.99), "ms");
  report->metric("trace_overhead_pct", (traced / untraced - 1.0) * 100.0, "%");
  return 0;
}

}  // namespace perfbench
