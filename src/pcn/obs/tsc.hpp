// The project's one timing module: serialized time-stamp-counter reads
// for per-span timing, and the steady clock for whole-run totals.
//
// `serialized_tsc()` brackets a region with RDTSCP + LFENCE on x86 (the
// read waits for every prior instruction to retire and fences later ones
// out, so the bracketed work cannot leak across the measurement); on other
// architectures it falls back to the steady clock, in which case "ticks"
// are nanoseconds.  `tsc_ticks_per_ns()` calibrates the tick rate against
// the steady clock once per process (a ~2 ms spin on first use), so tick
// deltas convert to wall time without a clock read on the hot path:
//
//   const std::uint64_t t0 = obs::serialized_tsc();
//   ... phase ...
//   hist.observe(obs::tsc_delta_us(t0, obs::serialized_tsc()));
//
// Cross-core deltas are meaningful on any x86-64 with an invariant TSC
// (every machine this project targets); the fallback's steady clock is
// cross-core by construction.
//
// The rule: a per-span timing (one slot phase, one shard's segment, one
// sampled page) is a serialized-TSC delta observed into a `*.phase.*_us`
// histogram with phase_us_buckets(); a whole-run total is a
// monotonic_ns() difference added into a `*.run.wall_ns` counter.  The
// pcnd phase profiler (daemon.phase.*), the simulator's spans
// (sim.phase.*) and bench/perf_micro's per-slot-cost section all share
// this machinery.
#pragma once

#include <cstdint>
#include <vector>

namespace pcn::obs {

/// Monotonic timestamp in nanoseconds (std::chrono::steady_clock).
std::int64_t monotonic_ns();

/// A serialized TSC read (nanoseconds on non-x86).
std::uint64_t serialized_tsc();

/// TSC ticks per nanosecond, calibrated once per process (1.0 on the
/// steady-clock fallback).
double tsc_ticks_per_ns();

/// Microseconds between two serialized_tsc() reads.
inline double tsc_delta_us(std::uint64_t start, std::uint64_t end) {
  return static_cast<double>(end - start) / tsc_ticks_per_ns() / 1000.0;
}

/// Bucket upper bounds shared by every `*.phase.*_us` histogram: 1 µs
/// doubling to ~0.5 s, which covers a phase at any scale we run.
std::vector<double> phase_us_buckets();

}  // namespace pcn::obs
