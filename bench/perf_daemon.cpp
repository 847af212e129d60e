// Daemon overload sweep: closed-loop offered load past the paging-channel
// capacity knee.
//
// Drives pcnd with the built-in closed-loop workload at a ladder of
// offered-load multiples of the fleet's aggregate paging capacity
// (cells x channels / slots_per_message).  Below the knee (< 1x) the
// bounded queues absorb bursts and the drop rate is ~0; past it the
// channel physically cannot keep up, queues saturate at max_pending, and
// the drop rate climbs toward 1 - 1/multiple — the curve this bench
// records row by row.
//
// Every non-time value in the report (served/dropped/expired counts, drop
// rates, delay percentiles) is a deterministic function of (seed, scale,
// config): tools/bench_compare.py gates them EXACTLY against the blessed
// baseline, so a behaviour change in the daemon shows up as drift even
// when wall time is unchanged.  Wall-clock keys get the usual 25% band.
//
// The sweep also gates the introspection plane: after the ladder it runs
// interleaved, order-alternated off/on pairs at the 1x point — "on"
// meaning live queue stats, the phase profiler's consumers, and a bound
// AdminServer listener — and reports the floor-of-pairs process-CPU-time
// delta as `introspection_overhead_pct` (bench_compare gates it at +2
// absolute points; the acceptance bound is 2%).  CPU time rather than
// wall time: it charges the cycles the plane adds while staying immune
// to the single-core scheduler noise that makes small wall-time deltas
// unmeasurable.  The per-scrape service cost is measured separately as
// an uncontended render floor and printed alongside — at the 1 Hz
// pcnctl-top cadence it is well under 0.1% of a core.
//
// Two policy-plane sections ride on the same scenario, all-deterministic
// rows gated exactly by bench_compare: per-admission-policy 2x points
// (`admission_drop_oldest_2x`, `admission_priority_2x` — victim choice
// drift shows up as counter drift) and an open-loop-vs-feedback planner
// pair (`plan_static_2x`, `plan_feedback_2x`).  The feedback plan must
// beat the static plan on p99 queueing delay or SLA violations at 2x
// without lowering the served-page knee — the bench exits nonzero
// otherwise.
//
// The run-timeline layer is gated the same way: every sweep point runs
// with timeseries capture on (every 8 slots) and writes its
// pcn.timeseries.v1 timeline next to the JSON report
// ($PCN_BENCH_DIR/TIMELINE_perf_daemon_<label>.series — the overload
// knee as a replayable metric history), and a second interleaved
// off/on pair loop reports `timeseries_overhead_pct` under the same +2
// absolute-point bench_compare gate.
//
// Defaults to the acceptance scenario: a 1M-terminal fleet on a 64x64-cell
// torus for 512 slots.  Override with PCN_DAEMON_TERMINALS,
// PCN_DAEMON_SLOTS, PCN_DAEMON_REGION, PCN_DAEMON_THREADS for smoke runs
// (run_checks.sh gate 9 does).
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "pcn/daemon/admin_server.hpp"
#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/daemon_report.hpp"
#include "pcn/daemon/load_gen.hpp"
#include "pcn/obs/bench_report.hpp"
#include "pcn/obs/report.hpp"
#include "pcn/obs/tsc.hpp"

namespace {

std::int64_t env_int64(const char* name, std::int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoll(value, nullptr, 10);
}

const std::int64_t kTerminals = env_int64("PCN_DAEMON_TERMINALS", 1'000'000);
const std::int64_t kSlots = env_int64("PCN_DAEMON_SLOTS", 512);
const std::int64_t kRegion = env_int64("PCN_DAEMON_REGION", 64);
const std::int64_t kThreads = env_int64("PCN_DAEMON_THREADS", 4);

constexpr int kChannels = 2;
constexpr double kSlotsPerMessage = 1.0;
constexpr std::uint64_t kSeed = 42;

constexpr std::int64_t kSeriesEvery = 8;  ///< timeline sampling cadence

struct SweepPoint {
  double offered_multiple = 0.0;
  pcn::daemon::DaemonRunReport report;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double render_pair_us = 0.0;  ///< one json+prom scrape, uncontended floor
  std::string timeline;         ///< encoded pcn.timeseries.v1 (capture on)
};

double process_cpu_seconds() {
  // CLOCK_PROCESS_CPUTIME_ID sums the scheduler's nanosecond-precision
  // runtime over all threads — unlike tick-sampled rusage, it does not
  // misattribute timer-interrupt ticks around the scraper's wakeups.
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

std::string admin_socket_path() {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  if (dir.back() == '/') dir.pop_back();
  return dir + "/pcn_perf_daemon_admin." + std::to_string(getpid()) + ".sock";
}

SweepPoint run_point(
    double multiple, bool introspect, std::int64_t slots,
    std::int64_t series_every = 0,
    pcn::daemon::AdmissionPolicy admission =
        pcn::daemon::AdmissionPolicy::kDropNewest,
    pcn::daemon::DelayPlanConfig::Mode plan_mode =
        pcn::daemon::DelayPlanConfig::Mode::kOff) {
  pcn::daemon::PcndConfig config;
  config.live_stats = introspect;
  config.timeseries_every_slots = series_every;
  config.dimension = pcn::Dimension::kTwoD;
  config.threads = static_cast<int>(kThreads);
  config.capacity =
      pcn::capacity::PagingCapacityModel(kChannels, kSlotsPerMessage);
  config.queue.max_pending = 64;
  config.queue.lifetime_slots = 128;
  config.queue.groups = 4;
  config.queue.admission = admission;
  config.sla_delay_slots = 8;
  config.plan.mode = plan_mode;

  pcn::daemon::ClosedLoopConfig workload_config;
  workload_config.dimension = config.dimension;
  workload_config.seed = kSeed;
  workload_config.terminals = static_cast<std::uint64_t>(kTerminals);
  workload_config.region = static_cast<int>(kRegion);
  workload_config.move_prob = 0.2;
  workload_config.threshold = 3;
  const double cells = double(kRegion) * double(kRegion);
  const double capacity = cells * config.capacity.pages_per_slot();
  workload_config.call_prob =
      std::min(1.0, multiple * capacity / double(kTerminals));

  pcn::daemon::Pcnd daemon(config);
  pcn::daemon::ClosedLoopWorkload workload(workload_config);

  // The "on" leg carries the always-on production cost of
  // `--admin-socket`: the live occupancy walk, the phase profiler's
  // consumers, and an AdminServer bound and listening on a throwaway
  // socket.  The per-scrape service cost is measured separately and
  // deterministically after the run (render_pair_us below) rather than
  // by scraping from an in-process thread during the loop: on a
  // one-core host a concurrent thread's wakeups preempt the barrier
  // workers and inflate the measured floor by tens of ms per
  // invocation — scheduler convoy noise, not plane cost — while a real
  // scraper is a separate process whose client side is never daemon
  // overhead.  Hammering scrapes under fire are the
  // admin-introspection soak test's job, and gate 10 scrapes a live
  // run through the socket.
  std::unique_ptr<pcn::daemon::AdminServer> admin;
  if (introspect) {
    try {
      admin = std::make_unique<pcn::daemon::AdminServer>(&daemon,
                                                         admin_socket_path());
      admin->start();
    } catch (const std::exception& error) {
      // No bindable tmp dir (odd sandbox): measure without the listener;
      // the live-stats walk and profiler still run.
      std::fprintf(stderr, "perf_daemon: admin socket unavailable (%s)\n",
                   error.what());
      admin.reset();
    }
  }

  const double start_cpu = process_cpu_seconds();
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  daemon.run_slots(slots, &workload);
  const std::int64_t elapsed_ns = pcn::obs::monotonic_ns() - start_ns;
  const double elapsed_cpu = process_cpu_seconds() - start_cpu;

  SweepPoint point;
  if (introspect && admin != nullptr) {
    // Floor over repeated uncontended renders: what one admin scrape
    // (json + prom) costs the daemon to serve.
    for (int i = 0; i < 50; ++i) {
      const std::int64_t t0 = pcn::obs::monotonic_ns();
      (void)admin->render_live_snapshot();
      (void)admin->render_prometheus();
      const double us = double(pcn::obs::monotonic_ns() - t0) * 1e-3;
      if (i == 0 || us < point.render_pair_us) point.render_pair_us = us;
    }
    admin->stop();
  }

  point.offered_multiple = multiple;
  point.report = pcn::daemon::make_daemon_report(daemon, kSeed, kTerminals);
  point.wall_seconds = double(elapsed_ns) * 1e-9;
  point.cpu_seconds = elapsed_cpu;
  if (series_every > 0) point.timeline = daemon.timeseries_encoded();
  return point;
}

/// $PCN_BENCH_DIR/TIMELINE_perf_daemon_<label>.series (same directory the
/// JSON report lands in, created on demand).
void write_point_timeline(const std::string& label,
                          const std::string& encoded) {
  const char* dir = std::getenv("PCN_BENCH_DIR");
  const std::string prefix = (dir == nullptr || *dir == '\0')
                                 ? std::string("bench/out/")
                                 : std::string(dir) + '/';
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(prefix), ec);
  const std::string path = prefix + "TIMELINE_perf_daemon_" + label + ".series";
  std::string error;
  if (!pcn::obs::write_file(path, encoded, &error)) {
    std::fprintf(stderr, "perf_daemon: %s\n", error.c_str());
  }
}

std::string point_label(double multiple) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "offered_%.2fx", multiple);
  return buf;
}

}  // namespace

int main() {
  constexpr double kMultiples[] = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0};
  pcn::obs::BenchReport report("perf_daemon");
  report.set("terminals", kTerminals)
      .set("slots", kSlots)
      .set("region", kRegion)
      .set("threads", kThreads)
      .set("channels", kChannels);

  double drop_rate_1x = 0.0;
  double drop_rate_2x = 0.0;
  double drop_rate_4x = 0.0;
  int p99_2x = 0;
  double wall_1x = 0.0;
  bool knee_monotonic = true;
  double previous_drop_rate = -1.0;

  // Each point's counters are bit-identical run over run, but its timing
  // keys (phase_*_us, run_seconds) are single draws on a host where
  // interference and slow frequency states inflate a rep by 25%+ — and
  // only ever inflate, never deflate.  So every point runs kSweepReps
  // times and the rows report the fastest rep: the same floor estimator
  // the overhead gate below uses, for the same one-sided-noise reason.
  constexpr int kSweepReps = 3;
  for (const double multiple : kMultiples) {
    // Capture is on for the sweep rows: it does not touch any
    // deterministic counter (sampling only reads the registry), and its
    // timing cost — gated below at 2 points — is far inside the 25%
    // wall-time band.  Each point's timeline lands next to the report.
    SweepPoint point =
        run_point(multiple, /*introspect=*/false, kSlots, kSeriesEvery);
    for (int rep = 1; rep < kSweepReps; ++rep) {
      SweepPoint candidate =
          run_point(multiple, /*introspect=*/false, kSlots, kSeriesEvery);
      if (candidate.cpu_seconds < point.cpu_seconds) point = std::move(candidate);
    }
    write_point_timeline(point_label(multiple), point.timeline);
    const pcn::daemon::DaemonRunReport& r = point.report;
    pcn::obs::BenchReport::Row& row = report.add_row(point_label(multiple));
    row.set("offered_multiple", multiple)
        .set("pages_offered", r.pages_offered)
        .set("pages_served", r.pages_served)
        .set("pages_dropped", r.pages_dropped)
        .set("pages_expired", r.pages_expired)
        .set("drop_rate", r.drop_rate)
        .set("mean_delay_slots", r.mean_queue_delay_slots)
        .set("delay_p50", r.delay_p50)
        .set("delay_p99", r.delay_p99)
        .set("max_queue_depth", r.max_queue_depth)
        .set("sla_violations", r.sla_violations)
        .set("phase_ingest_us", r.phase_ingest_us)
        .set("phase_apply_us", r.phase_apply_us)
        .set("phase_drain_us", r.phase_drain_us)
        .set("phase_finalize_us", r.phase_finalize_us)
        .set("run_seconds", point.wall_seconds);
    std::printf(
        "perf_daemon %-14s offered %-9" PRId64 " served %-9" PRId64
        " drop_rate %.4f  p99 %d  %.3fs\n",
        point_label(multiple).c_str(), r.pages_offered, r.pages_served,
        r.drop_rate, r.delay_p99, point.wall_seconds);
    if (multiple == 1.0) {
      drop_rate_1x = r.drop_rate;
      wall_1x = point.wall_seconds;
    }
    if (multiple == 2.0) {
      drop_rate_2x = r.drop_rate;
      p99_2x = r.delay_p99;
    }
    if (multiple == 4.0) drop_rate_4x = r.drop_rate;
    if (r.drop_rate + 1e-9 < previous_drop_rate) knee_monotonic = false;
    previous_drop_rate = r.drop_rate;
  }

  // Admission-policy knee points: the same 2x-overload scenario under
  // each eviction policy.  Every key here is a deterministic counter
  // (no timing), so one rep suffices and bench_compare gates the rows
  // exactly — a change in eviction order or victim choice shows up as
  // baseline drift.
  struct PolicyPoint {
    const char* label;
    pcn::daemon::AdmissionPolicy policy;
  };
  constexpr PolicyPoint kPolicies[] = {
      {"admission_drop_oldest_2x",
       pcn::daemon::AdmissionPolicy::kDropOldest},
      {"admission_priority_2x",
       pcn::daemon::AdmissionPolicy::kPriorityDelayBound},
  };
  for (const PolicyPoint& policy : kPolicies) {
    const SweepPoint point =
        run_point(2.0, /*introspect=*/false, kSlots, 0, policy.policy);
    const pcn::daemon::DaemonRunReport& r = point.report;
    report.add_row(policy.label)
        .set("offered_multiple", 2.0)
        .set("pages_offered", r.pages_offered)
        .set("pages_served", r.pages_served)
        .set("pages_dropped", r.pages_dropped)
        .set("pages_evicted", r.pages_evicted)
        .set("pages_expired", r.pages_expired)
        .set("drop_rate", r.drop_rate)
        .set("delay_p50", r.delay_p50)
        .set("delay_p99", r.delay_p99)
        .set("max_queue_depth", r.max_queue_depth)
        .set("sla_violations", r.sla_violations);
    std::printf(
        "perf_daemon %-24s served %-9" PRId64 " evicted %-9" PRId64
        " drop_rate %.4f  p99 %d\n",
        policy.label, r.pages_served, r.pages_evicted, r.drop_rate,
        r.delay_p99);
  }

  // Static-vs-feedback planner at 2x: the open-loop plan pins the paging
  // delay bound at m_start (a deliberately narrow 75% budget); the
  // feedback plan starts identically but is allowed to steer on the
  // measured delay EWMA.  Both runs are fully deterministic, so the
  // acceptance check below is exact: feedback must beat static on p99
  // queueing delay or on the SLA-violation rate, without giving up the
  // served-page knee (>= 98% of static's served count covers histogram
  // granularity, not run noise — there is none).
  const SweepPoint plan_static = run_point(
      2.0, /*introspect=*/false, kSlots, 0,
      pcn::daemon::AdmissionPolicy::kDropNewest,
      pcn::daemon::DelayPlanConfig::Mode::kStatic);
  const SweepPoint plan_feedback = run_point(
      2.0, /*introspect=*/false, kSlots, 0,
      pcn::daemon::AdmissionPolicy::kDropNewest,
      pcn::daemon::DelayPlanConfig::Mode::kFeedback);
  for (const auto* leg : {&plan_static, &plan_feedback}) {
    const pcn::daemon::DaemonRunReport& r = leg->report;
    const bool is_static = leg == &plan_static;
    report.add_row(is_static ? "plan_static_2x" : "plan_feedback_2x")
        .set("pages_offered", r.pages_offered)
        .set("pages_served", r.pages_served)
        .set("drop_rate", r.drop_rate)
        .set("delay_p50", r.delay_p50)
        .set("delay_p99", r.delay_p99)
        .set("sla_violations", r.sla_violations)
        .set("effective_m", r.plan_effective_m)
        .set("plan_widen", r.plan_widen)
        .set("plan_narrow", r.plan_narrow);
    std::printf(
        "perf_daemon %-24s served %-9" PRId64
        " drop_rate %.4f  p99 %d  violations %" PRId64 "  m %d\n",
        is_static ? "plan_static_2x" : "plan_feedback_2x", r.pages_served,
        r.drop_rate, r.delay_p99, r.sla_violations, r.plan_effective_m);
  }

  // Introspection overhead: interleaved pairs at the 1x point, order
  // alternated within each pair (off/on, on/off, ...).  Compared in
  // process CPU time, not wall time: CPU time counts every cycle the
  // plane actually adds (the FINALIZE occupancy walk, the admin
  // threads, the scraper's renders — all threads of this process) while
  // staying immune to the scheduler noise that dominates wall clock
  // when the scraper competes for cores on a small machine.  The two
  // legs of a pair run back-to-back and the reported number is the
  // minimum (the floor) over the pairs on each side: identical runs can
  // differ by ±20% CPU time on a frequency-scaling host, but the noise
  // is one-sided — interference and slow frequency states only ever
  // inflate a run — so with enough samples both floors land in the fast
  // state and their ratio isolates the plane's real cost.  The legs run
  // at least 512 slots even when the sweep is scaled down for smoke
  // runs, keeping accounting granularity well under a point.  Clamped
  // at zero — "on" beating "off" is noise, not speedup.
  const std::int64_t overhead_slots = std::max<std::int64_t>(kSlots, 512);
  // 10 pairs normally; if the floors still disagree by more than the
  // acceptance bound, keep sampling (up to 30 pairs) before concluding —
  // residual noise is one-sided, so more samples can only tighten a
  // spuriously high reading, never hide a real regression of this size.
  constexpr int kOverheadPairs = 10;
  constexpr int kOverheadPairsMax = 30;
  constexpr double kOverheadBoundPct = 2.0;
  double min_off = 0.0;
  double min_on = 0.0;
  double render_pair_us = 0.0;
  double overhead_pct = 0.0;
  int pairs_run = 0;
  for (int rep = 0; rep < kOverheadPairsMax; ++rep) {
    const bool off_first = rep % 2 == 0;
    const SweepPoint first =
        run_point(1.0, /*introspect=*/!off_first, overhead_slots);
    const SweepPoint second =
        run_point(1.0, /*introspect=*/off_first, overhead_slots);
    const double off = (off_first ? first : second).cpu_seconds;
    const double on = (off_first ? second : first).cpu_seconds;
    const double render = (off_first ? second : first).render_pair_us;
    if (rep == 0 || off < min_off) min_off = off;
    if (rep == 0 || on < min_on) min_on = on;
    if (render > 0.0 && (render_pair_us == 0.0 || render < render_pair_us)) {
      render_pair_us = render;
    }
    pairs_run = rep + 1;
    overhead_pct =
        min_off > 0.0 ? std::max(0.0, (min_on - min_off) / min_off * 100.0)
                      : 0.0;
    if (pairs_run >= kOverheadPairs && overhead_pct <= kOverheadBoundPct) {
      break;
    }
  }
  const double introspection_overhead_pct = overhead_pct;
  std::printf(
      "perf_daemon introspection overhead %.2f%% (floor of %d off/on CPU "
      "pairs: off %.3fs, on %.3fs; scrape service %.0f us/json+prom pair)\n",
      introspection_overhead_pct, pairs_run, min_off, min_on, render_pair_us);

  // Timeseries capture overhead: same interleaved floor-of-pairs
  // estimator, introspection off on both legs, capture every kSeriesEvery
  // slots on the "on" leg.  Capture runs in the serial FINALIZE phase
  // (one registry snapshot + column append per sample), so its cost per
  // slot is the snapshot cost divided by the cadence.
  double ts_min_off = 0.0;
  double ts_min_on = 0.0;
  double ts_overhead_pct = 0.0;
  int ts_pairs_run = 0;
  for (int rep = 0; rep < kOverheadPairsMax; ++rep) {
    const bool off_first = rep % 2 == 0;
    const SweepPoint first = run_point(
        1.0, /*introspect=*/false, overhead_slots,
        off_first ? 0 : kSeriesEvery);
    const SweepPoint second = run_point(
        1.0, /*introspect=*/false, overhead_slots,
        off_first ? kSeriesEvery : 0);
    const double off = (off_first ? first : second).cpu_seconds;
    const double on = (off_first ? second : first).cpu_seconds;
    if (rep == 0 || off < ts_min_off) ts_min_off = off;
    if (rep == 0 || on < ts_min_on) ts_min_on = on;
    ts_pairs_run = rep + 1;
    ts_overhead_pct =
        ts_min_off > 0.0
            ? std::max(0.0, (ts_min_on - ts_min_off) / ts_min_off * 100.0)
            : 0.0;
    if (ts_pairs_run >= kOverheadPairs && ts_overhead_pct <= kOverheadBoundPct) {
      break;
    }
  }
  const double timeseries_overhead_pct = ts_overhead_pct;
  std::printf(
      "perf_daemon timeseries overhead %.2f%% (floor of %d off/on CPU "
      "pairs: off %.3fs, on %.3fs; sampled every %" PRId64 " slots)\n",
      timeseries_overhead_pct, ts_pairs_run, ts_min_off, ts_min_on,
      kSeriesEvery);

  report.set("drop_rate_1x", drop_rate_1x)
      .set("drop_rate_2x", drop_rate_2x)
      .set("drop_rate_4x", drop_rate_4x)
      .set("delay_p99_2x", p99_2x)
      .set("knee_monotonic", knee_monotonic ? 1 : 0)
      .set("introspection_overhead_pct", introspection_overhead_pct)
      .set("timeseries_overhead_pct", timeseries_overhead_pct)
      .set("terminal_slots_per_sec",
           wall_1x > 0.0 ? double(kTerminals) * double(kSlots) / wall_1x
                         : 0.0);
  report.emit();

  // Past the knee the channel must be saturated: the drop rate at 4x has
  // to clearly exceed the at-capacity rate, or the bounded queue is not
  // doing its job.
  if (!(drop_rate_4x > drop_rate_1x)) {
    std::fprintf(stderr,
                 "perf_daemon: no overload knee (drop rate %.4f at 1x vs "
                 "%.4f at 4x)\n",
                 drop_rate_1x, drop_rate_4x);
    return 1;
  }
  if (!knee_monotonic) {
    std::fprintf(stderr,
                 "perf_daemon: drop rate not monotone in offered load\n");
    return 1;
  }
  // The delay-feedback plan must earn its keep at 2x overload: better
  // p99 queueing delay or fewer SLA violations than the open-loop plan,
  // at no real cost in served pages.
  const pcn::daemon::DaemonRunReport& rs = plan_static.report;
  const pcn::daemon::DaemonRunReport& rf = plan_feedback.report;
  const bool delay_better = rf.delay_p99 < rs.delay_p99;
  const bool violations_better = rf.sla_violations < rs.sla_violations;
  if (!delay_better && !violations_better) {
    std::fprintf(stderr,
                 "perf_daemon: feedback plan did not beat static (p99 %d vs "
                 "%d, violations %" PRId64 " vs %" PRId64 ")\n",
                 rf.delay_p99, rs.delay_p99, rf.sla_violations,
                 rs.sla_violations);
    return 1;
  }
  if (double(rf.pages_served) < 0.98 * double(rs.pages_served)) {
    std::fprintf(stderr,
                 "perf_daemon: feedback plan lowered the served knee "
                 "(%" PRId64 " vs %" PRId64 ")\n",
                 rf.pages_served, rs.pages_served);
    return 1;
  }
  return 0;
}
