// Performance F: multi-core simulator throughput, via google-benchmark.
//
// Measures slot throughput (items = slots x terminals) of Network::run for
// a mixed-policy terminal fleet as the worker-thread count grows.  The
// sharded engine guarantees bit-identical per-terminal metrics for every
// thread count, so these numbers compare pure scheduling overhead and
// scaling — BENCH_*.json can track slots*terminals/sec across commits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "gbench_report.hpp"
#include "pcn/costs/cost_model.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/optimize/exhaustive.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/sim/simd_engine.hpp"

namespace {

constexpr pcn::MobilityProfile kProfile{0.1, 0.02};
constexpr pcn::CostWeights kWeights{100.0, 10.0};
constexpr std::int64_t kSlots = 4096;

/// A fleet mixing all four policy kinds, round-robin.
void add_fleet(pcn::sim::Network& network, int terminals) {
  using namespace pcn::sim;
  for (int i = 0; i < terminals; ++i) {
    switch (i % 4) {
      case 0:
        network.add_terminal(make_distance_terminal(
            pcn::Dimension::kTwoD, kProfile, 2 + i % 3, pcn::DelayBound(2)));
        break;
      case 1:
        network.add_terminal(make_movement_terminal(
            pcn::Dimension::kTwoD, kProfile, 3 + i % 3, pcn::DelayBound(3)));
        break;
      case 2:
        network.add_terminal(
            make_time_terminal(pcn::Dimension::kTwoD, kProfile, 16 + i % 8));
        break;
      default:
        network.add_terminal(
            make_la_terminal(pcn::Dimension::kTwoD, kProfile, 2));
        break;
    }
  }
}

/// Which observability side a gate run exercises: nothing, the metrics
/// registry + trace ring, or the per-call flight recorder (at its default
/// 1-in-8 sampling, the configuration the 3% overhead gate blesses).
enum class GateMode { kBare, kTelemetry, kFlight };

void apply_mode(pcn::sim::NetworkConfig& config, GateMode mode) {
  config.collect_runtime_stats = mode == GateMode::kTelemetry;
  config.record_flight = mode == GateMode::kFlight;
}

void run_scale(benchmark::State& state, GateMode mode) {
  const int terminals = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    pcn::sim::NetworkConfig config{pcn::Dimension::kTwoD,
                                   pcn::sim::SlotSemantics::kChainFaithful,
                                   42};
    config.threads = threads;
    apply_mode(config, mode);
    pcn::sim::Network network(config, kWeights);
    add_fleet(network, terminals);
    state.ResumeTiming();
    network.run(kSlots);
  }
  state.SetItemsProcessed(state.iterations() * kSlots * terminals);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["terminals"] = static_cast<double>(terminals);
}

void BM_NetworkScale(benchmark::State& state) {
  run_scale(state, GateMode::kBare);
}
BENCHMARK(BM_NetworkScale)
    ->ArgNames({"terminals", "threads"})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The same slot loop with collect_runtime_stats on — compare against
/// BM_NetworkScale at equal args to see the telemetry tax under load.
void BM_NetworkScaleTelemetry(benchmark::State& state) {
  run_scale(state, GateMode::kTelemetry);
}
BENCHMARK(BM_NetworkScaleTelemetry)
    ->ArgNames({"terminals", "threads"})
    ->Args({64, 1})
    ->Args({256, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The same slot loop with the per-call flight recorder on (default
/// sampling) — compare against BM_NetworkScale at equal args to see the
/// recording tax under load.
void BM_NetworkScaleFlight(benchmark::State& state) {
  run_scale(state, GateMode::kFlight);
}
BENCHMARK(BM_NetworkScaleFlight)
    ->ArgNames({"terminals", "threads"})
    ->Args({64, 1})
    ->Args({256, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ExhaustiveSearchColdCache(benchmark::State& state) {
  // One fresh model per iteration: every threshold in the sweep pays its
  // single chain solve — the honest cold-cache cost of a full search.
  const int max_threshold = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto model = pcn::costs::CostModel::exact(
        pcn::Dimension::kTwoD, pcn::MobilityProfile{0.05, 0.01}, kWeights);
    benchmark::DoNotOptimize(pcn::optimize::exhaustive_search(
        model, pcn::DelayBound(3), max_threshold));
  }
}
BENCHMARK(BM_ExhaustiveSearchColdCache)->Arg(20)->Arg(80);

/// One timed slot-loop run (nanoseconds) in the given gate mode.
std::int64_t timed_run_ns(GateMode mode) {
  constexpr int kTerminals = 64;
  constexpr std::int64_t kGateSlots = 8192;
  pcn::sim::NetworkConfig config{pcn::Dimension::kTwoD,
                                 pcn::sim::SlotSemantics::kChainFaithful,
                                 42};
  apply_mode(config, mode);
  pcn::sim::Network network(config, kWeights);
  add_fleet(network, kTerminals);
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  network.run(kGateSlots);
  return pcn::obs::monotonic_ns() - start_ns;
}

/// Best-of-N throughputs (terminal-slots/sec) for bare / telemetry /
/// flight-recorder runs.  The reps interleave the three sides so frequency
/// scaling and scheduler noise hit all of them equally, and the min per
/// side discards the slow outliers — run_checks.sh gates on the resulting
/// ratios (telemetry_overhead_pct and flight_overhead_pct).
struct GateThroughput {
  double bare = 0;
  double telemetry = 0;
  double flight = 0;
};

GateThroughput measured_throughput(int reps) {
  constexpr double kGateWork = 8192.0 * 64;
  constexpr std::int64_t kWorst = std::numeric_limits<std::int64_t>::max();
  std::int64_t best_bare = kWorst;
  std::int64_t best_telemetry = kWorst;
  std::int64_t best_flight = kWorst;
  for (int rep = 0; rep < reps; ++rep) {
    best_bare = std::min(best_bare, timed_run_ns(GateMode::kBare));
    best_telemetry =
        std::min(best_telemetry, timed_run_ns(GateMode::kTelemetry));
    best_flight = std::min(best_flight, timed_run_ns(GateMode::kFlight));
  }
  const auto throughput = [](std::int64_t ns) {
    return kGateWork / (static_cast<double>(ns) * 1e-9);
  };
  return {throughput(best_bare), throughput(best_telemetry),
          throughput(best_flight)};
}

// --- Fleet-scale engine comparison -------------------------------------------
// The canonical distance-update scenario at fleet scale: the same fleet is
// run under the reference polymorphic engine and (where supported) the
// SIMD slot-loop engine, sequentially.  The two draw through one
// per-(terminal, slot) contract, so they must agree on every per-terminal
// metric bit (checked via a digest so neither metric set has to stay
// resident), at 4 threads and at 1.  The report carries the slot
// throughputs, the SIMD 4-thread speedup over reference, and the SIMD
// engine's flat per-terminal footprint.
//
// Defaults to a 10M-terminal fleet; override with PCN_SCALE_TERMINALS and
// PCN_SCALE_SLOTS for smoke runs (run_checks.sh gate 4 does).

std::int64_t env_int64(const char* name, std::int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoll(value, nullptr, 10);
}

const std::int64_t kScaleTerminals = env_int64("PCN_SCALE_TERMINALS",
                                               10'000'000);
// Enough slots per terminal that the hot loop dominates the segment's
// O(terminals) load/sync passes, as any long-running fleet would.
const std::int64_t kScaleSlots = env_int64("PCN_SCALE_SLOTS", 256);
constexpr int kScaleThreads = 4;

/// FNV-1a over every word of every per-terminal metric, histograms
/// included — any single-bit divergence between engines changes it.
class MetricsDigest {
 public:
  void fold(std::uint64_t word) {
    hash_ = (hash_ ^ word) * 0x100000001b3ull;
  }
  void fold(double value) {
    std::uint64_t word;
    static_assert(sizeof word == sizeof value);
    std::memcpy(&word, &value, sizeof word);
    fold(word);
  }
  void fold(const pcn::stats::Histogram& hist) {
    fold(static_cast<std::uint64_t>(hist.bucket_count()));
    for (int v = 0; v < hist.bucket_count(); ++v) {
      fold(static_cast<std::uint64_t>(hist.count(v)));
    }
  }
  void fold(const pcn::sim::TerminalMetrics& m) {
    fold(static_cast<std::uint64_t>(m.slots));
    fold(static_cast<std::uint64_t>(m.moves));
    fold(static_cast<std::uint64_t>(m.calls));
    fold(static_cast<std::uint64_t>(m.updates));
    fold(static_cast<std::uint64_t>(m.polled_cells));
    fold(static_cast<std::uint64_t>(m.update_bytes));
    fold(static_cast<std::uint64_t>(m.paging_bytes));
    fold(static_cast<std::uint64_t>(m.lost_updates));
    fold(static_cast<std::uint64_t>(m.paging_failures));
    fold(m.update_cost);
    fold(m.paging_cost);
    fold(m.paging_cycles);
    fold(m.ring_distance);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct EngineRun {
  double slots_per_sec = 0;        ///< terminal-slots per second
  std::uint64_t digest = 0;        ///< all per-terminal metrics folded
  std::size_t bytes_per_terminal = 0;
};

EngineRun timed_engine_run(pcn::sim::SimEngine engine, int threads) {
  pcn::sim::NetworkConfig config{pcn::Dimension::kTwoD,
                                 pcn::sim::SlotSemantics::kChainFaithful,
                                 42};
  config.threads = threads;
  config.engine = engine;
  pcn::sim::Network network(config, kWeights);
  for (std::int64_t i = 0; i < kScaleTerminals; ++i) {
    network.add_terminal(pcn::sim::make_distance_terminal(
        pcn::Dimension::kTwoD, kProfile, static_cast<int>(1 + i % 4),
        pcn::DelayBound(2)));
  }
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  network.run(kScaleSlots);
  const std::int64_t elapsed_ns = pcn::obs::monotonic_ns() - start_ns;
  EngineRun run;
  run.slots_per_sec =
      static_cast<double>(kScaleSlots * kScaleTerminals) /
      (static_cast<double>(elapsed_ns) * 1e-9);
  run.bytes_per_terminal = network.simd_bytes_per_terminal();
  MetricsDigest digest;
  for (std::int64_t i = 0; i < kScaleTerminals; ++i) {
    digest.fold(network.metrics(static_cast<pcn::sim::TerminalId>(i)));
  }
  run.digest = digest.value();
  return run;
}

/// Runs the reference and SIMD engines, reports throughput/speedup/
/// footprint, and fails the bench (non-zero exit) when any SIMD run's
/// metrics diverge from the reference run's.
bool run_engine_comparison(pcn::obs::BenchReport& report) {
  const EngineRun reference =
      timed_engine_run(pcn::sim::SimEngine::kReference, kScaleThreads);
  report.set("scale_terminals", static_cast<double>(kScaleTerminals))
      .set("scale_slots", static_cast<double>(kScaleSlots))
      .set("reference_slots_per_sec", reference.slots_per_sec);
  const pcn::sim::SimdSupport simd = pcn::sim::simd_support();
  report.set("simd_available", simd.available ? 1.0 : 0.0);
  if (!simd.available) return true;
  const EngineRun simd_4t =
      timed_engine_run(pcn::sim::SimEngine::kSimd, kScaleThreads);
  const EngineRun simd_1t = timed_engine_run(pcn::sim::SimEngine::kSimd, 1);
  const bool identical = reference.digest == simd_4t.digest &&
                         reference.digest == simd_1t.digest;
  report.set("simd_slots_per_sec", simd_4t.slots_per_sec)
      .set("simd_speedup_4t",
           simd_4t.slots_per_sec / reference.slots_per_sec)
      .set("simd_1t_slots_per_sec", simd_1t.slots_per_sec)
      .set("simd_bytes_per_terminal",
           static_cast<double>(simd_4t.bytes_per_terminal))
      .set("simd_avx2", simd.isa == pcn::sim::SimdIsa::kAvx2 ? 1.0 : 0.0)
      .set("engines_bit_identical", identical ? 1.0 : 0.0);
  if (!identical) {
    std::fprintf(stderr,
                 "perf_scale: engine comparison DIVERGED (reference digest "
                 "%016llx, simd 4-thread %016llx, simd 1-thread %016llx)\n",
                 static_cast<unsigned long long>(reference.digest),
                 static_cast<unsigned long long>(simd_4t.digest),
                 static_cast<unsigned long long>(simd_1t.digest));
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  pcn::obs::BenchReport report("perf_scale");
  const int rc = pcn::benchio::run_benchmarks(argc, argv, report);
  if (rc != 0) return rc;
  // Interleaved overhead measurement for the observability gates (one
  // warm-up round first so no side benefits from cache warming order).
  constexpr int kReps = 15;
  timed_run_ns(GateMode::kBare);
  timed_run_ns(GateMode::kTelemetry);
  timed_run_ns(GateMode::kFlight);
  const GateThroughput gate = measured_throughput(kReps);
  report.set("slots_per_sec_off", gate.bare)
      .set("slots_per_sec_on", gate.telemetry)
      .set("slots_per_sec_flight", gate.flight)
      .set("telemetry_overhead_pct",
           100.0 * (gate.bare - gate.telemetry) / gate.bare)
      .set("flight_overhead_pct",
           100.0 * (gate.bare - gate.flight) / gate.bare);
  const bool comparison_ok = run_engine_comparison(report);
  report.emit();
  return comparison_ok ? 0 : 1;
}
