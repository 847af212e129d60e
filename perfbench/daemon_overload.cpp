// daemon_overload: the in-process 2x-overload experiment.
//
// `pcnd run --terminals 1000000 --region 64 --threads 2 --offered 2
// --plan feedback` driven one slot per Pcnd::run_slots(1) call, so the
// harness can stamp every slot's start and end.  A page's verdict latency
// is the wall time from the start of the slot that generated it to the
// return of the run_slots call that settled it.
//
// Phases: set-up (construction + the registration slot, repeated
// kSetupReps times, the last instance kept), kWarmupSlots of warm-up,
// the timed window (a fixed slot count, so every count is a pure
// function of the seed), then a cool-down at the same load until every
// page generated in the window has its verdict.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common.hpp"
#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/load_gen.hpp"

namespace perfbench {
namespace {

using pcn::daemon::ClosedLoopConfig;
using pcn::daemon::ClosedLoopWorkload;
using pcn::daemon::PageOutcomeEvent;
using pcn::daemon::Pcnd;
using pcn::daemon::PcndConfig;
using pcn::proto::PageOutcomeKind;

constexpr std::uint64_t kTerminals = 1'000'000;
constexpr int kRegion = 64;
constexpr int kThreads = 2;
constexpr double kOffered = 2.0;
constexpr int kSetupReps = 3;
/// Warm-up: long enough for the feedback planner to widen m to its cap
/// and the queues to fill, so the window sees the saturated steady state.
constexpr std::int64_t kWarmupSlots = 96;
/// Timed slots per requested second: about one second of work each on a
/// 4-core x86-64 box at the time the benchmark was defined.
constexpr std::int64_t kSlotsPerSecond = 16;
/// Cool-down bound: past the queue lifetime (128 slots) every page has
/// a verdict, so hitting it means the daemon lost pages.
constexpr std::int64_t kCooldownCap = 160;

PcndConfig daemon_config() {
  PcndConfig config;
  config.threads = kThreads;
  config.sla_delay_slots = 8;
  config.queue.admission = pcn::daemon::AdmissionPolicy::kDropNewest;
  config.plan.mode = pcn::daemon::DelayPlanConfig::Mode::kFeedback;
  config.collect_outcomes = true;
  return config;
}

ClosedLoopConfig workload_config(const PcndConfig& daemon,
                                 std::uint64_t seed) {
  ClosedLoopConfig config;
  config.seed = seed;
  config.terminals = kTerminals;
  config.region = kRegion;
  config.move_prob = 0.2;
  config.threshold = 3;
  // As `pcnd run --offered 2`: offered pages = 2x aggregate capacity.
  const double capacity =
      double(kRegion) * double(kRegion) * daemon.capacity.pages_per_slot();
  config.call_prob = std::min(1.0, kOffered * capacity / double(kTerminals));
  return config;
}

/// Times each shard's ClosedLoopWorkload::generate call — which includes
/// the RequestSink routing (DB lookups, page intents) it drives.
class TimedWorkload final : public pcn::daemon::SlotWorkload {
 public:
  TimedWorkload(SlotWorkload* inner, int shards)
      : inner_(inner), shard_ns_(static_cast<std::size_t>(shards)) {}

  void generate(int shard, int shard_count, std::int64_t slot,
                pcn::daemon::RequestSink& sink) override {
    const std::int64_t start = now_ns();
    inner_->generate(shard, shard_count, slot, sink);
    shard_ns_[static_cast<std::size_t>(shard)].ns += now_ns() - start;
  }
  void on_outcome(std::uint64_t terminal_id, PageOutcomeKind kind,
                  std::int64_t slot) override {
    inner_->on_outcome(terminal_id, kind, slot);
  }

  /// Generate time summed over shards since the last call (between
  /// run_slots calls only).
  std::int64_t take_ns() {
    std::int64_t total = 0;
    for (Padded& cell : shard_ns_) total += std::exchange(cell.ns, 0);
    return total;
  }

 private:
  struct alignas(64) Padded {
    std::int64_t ns = 0;
  };
  SlotWorkload* inner_;
  std::vector<Padded> shard_ns_;  ///< one per terminal shard, own worker
};

struct Window {
  std::int64_t first = 0;  ///< first timed slot
  std::int64_t slots = 0;
  bool contains(std::int64_t slot) const {
    return slot >= first && slot < first + slots;
  }
};

/// Per-page verdict bookkeeping for the pages generated in the window.
struct Verdicts {
  std::vector<std::int64_t> slot_start_ns;  ///< indexed by daemon slot
  std::vector<std::int64_t> slot_end_ns;
  std::vector<std::int64_t> generated;      ///< per window slot
  std::vector<std::int64_t> settled;
  std::vector<double> latency_ms;
  std::vector<double> verdict_slots;        ///< queue delay + 1
  std::vector<double> served_delay;         ///< served pages' queue delay
  std::int64_t served = 0;
  std::int64_t total = 0;
};

void collect(Pcnd& daemon, const Window& window, Verdicts* verdicts,
             std::vector<PageOutcomeEvent>* scratch) {
  scratch->clear();
  daemon.drain_outcomes(scratch);
  for (const PageOutcomeEvent& event : *scratch) {
    const std::int64_t due = event.slot - event.queue_delay_slots;
    if (!window.contains(due)) continue;
    ++verdicts->settled[static_cast<std::size_t>(due - window.first)];
    ++verdicts->total;
    verdicts->latency_ms.push_back(
        double(verdicts->slot_end_ns[static_cast<std::size_t>(event.slot)] -
               verdicts->slot_start_ns[static_cast<std::size_t>(due)]) *
        1e-6);
    verdicts->verdict_slots.push_back(double(event.queue_delay_slots + 1));
    if (event.kind == PageOutcomeKind::kServed) {
      ++verdicts->served;
      verdicts->served_delay.push_back(double(event.queue_delay_slots));
    }
  }
}

}  // namespace

int run_daemon_overload(const Options& options, Report* report) {
  const PcndConfig config = daemon_config();
  const ClosedLoopConfig load = workload_config(config, options.seed);
  report->note(format("daemon_overload: %llu terminals, region %d, threads "
                      "%d, call_prob %.6f (%.1fx capacity), feedback plan",
                      static_cast<unsigned long long>(load.terminals),
                      load.region, config.threads, load.call_prob, kOffered));

  // --- set-up: construction + the registration slot ---------------------
  std::unique_ptr<Pcnd> daemon;
  std::unique_ptr<ClosedLoopWorkload> workload;
  std::vector<PageOutcomeEvent> scratch;
  std::vector<double> setup_s;
  const int reps = options.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    workload.reset();
    daemon.reset();
    const std::int64_t start = now_ns();
    daemon = std::make_unique<Pcnd>(config);
    workload = std::make_unique<ClosedLoopWorkload>(load);
    daemon->run_slots(1, workload.get());
    setup_s.push_back(double(now_ns() - start) * 1e-9);
  }
  for (std::int64_t i = 0; i < kWarmupSlots; ++i) {
    daemon->run_slots(1, workload.get());
  }
  scratch.clear();
  daemon->drain_outcomes(&scratch);

  // --- timed window ------------------------------------------------------
  const Window window{daemon->now(), kSlotsPerSecond * options.seconds};
  // Trace mode: the first half runs untraced, the second half through the
  // generate timer; trace_overhead_pct compares the two halves.
  const std::int64_t traced_from =
      options.trace ? window.first + window.slots / 2 : window.first + window.slots;
  TimedWorkload timed(workload.get(), config.terminal_shards);

  Verdicts verdicts;
  const auto horizon =
      static_cast<std::size_t>(window.first + window.slots + kCooldownCap + 1);
  verdicts.slot_start_ns.assign(horizon, 0);
  verdicts.slot_end_ns.assign(horizon, 0);
  verdicts.generated.assign(static_cast<std::size_t>(window.slots), 0);
  verdicts.settled.assign(static_cast<std::size_t>(window.slots), 0);

  std::vector<double> slot_us;        // run_slots(1) wall, timed slots
  std::vector<double> slot_cpu_us_per_request;
  std::vector<double> untraced_us;    // trace mode: first half
  std::vector<double> generate_us;    // traced slots
  std::int64_t requests = 0;
  std::int64_t last_slot_of_cooldown = window.first + window.slots;
  pcn::obs::MetricsSnapshot at_trace;  // before the first traced slot
  pcn::obs::MetricsSnapshot at_end;    // after the last timed slot

  for (std::int64_t slot = window.first;; ++slot) {
    const bool in_window = window.contains(slot);
    if (!in_window) {
      bool pending = false;
      for (std::size_t i = 0; i < verdicts.generated.size(); ++i) {
        pending = pending || verdicts.settled[i] < verdicts.generated[i];
      }
      if (!pending || slot >= window.first + window.slots + kCooldownCap) {
        last_slot_of_cooldown = slot;
        break;
      }
    }
    const bool traced = slot >= traced_from && in_window;
    if (options.trace && slot == traced_from) {
      at_trace = daemon->metrics_registry().snapshot();
    }
    const std::int64_t pages_before = workload->pages_submitted();
    const std::int64_t updates_before = workload->updates_sent();
    const double cpu_before = process_cpu_s();
    const std::int64_t start = now_ns();
    verdicts.slot_start_ns[static_cast<std::size_t>(slot)] = start;
    daemon->run_slots(1, traced ? static_cast<pcn::daemon::SlotWorkload*>(&timed)
                                : workload.get());
    const std::int64_t end = now_ns();
    verdicts.slot_end_ns[static_cast<std::size_t>(slot)] = end;
    if (in_window) {
      const std::int64_t pages = workload->pages_submitted() - pages_before;
      verdicts.generated[static_cast<std::size_t>(slot - window.first)] = pages;
      const std::int64_t slot_requests =
          pages + (workload->updates_sent() - updates_before);
      requests += slot_requests;
      slot_cpu_us_per_request.push_back((process_cpu_s() - cpu_before) * 1e6 /
                                        double(std::max<std::int64_t>(1, slot_requests)));
      const double us = double(end - start) * 1e-3;
      slot_us.push_back(us);
      if (traced) {
        generate_us.push_back(double(timed.take_ns()) * 1e-3);
      } else {
        untraced_us.push_back(us);
      }
    }
    collect(*daemon, window, &verdicts, &scratch);
    if (options.trace && slot + 1 == window.first + window.slots) {
      at_end = daemon->metrics_registry().snapshot();
    }
  }
  const pcn::obs::MetricsSnapshot after = daemon->metrics_registry().snapshot();

  // --- correctness -------------------------------------------------------
  std::int64_t generated = 0;
  for (const std::int64_t pages : verdicts.generated) generated += pages;
  const std::int64_t missing = generated - verdicts.total;
  report->check(missing == 0,
                format("every page generated in the window got one verdict "
                       "(%lld generated, %lld verdicts, cool-down %lld slots)",
                       static_cast<long long>(generated),
                       static_cast<long long>(verdicts.total),
                       static_cast<long long>(last_slot_of_cooldown -
                                              window.first - window.slots)));
  const auto count = [&](const char* name) {
    return after.counter_value(name);
  };
  const std::int64_t offered = workload->pages_submitted();
  const std::int64_t in_flight = workload->outstanding_count();
  const std::int64_t settled =
      count("daemon.page.served") + count("daemon.page.dropped") +
      count("daemon.page.evicted") + count("daemon.page.expired") +
      count("daemon.page.unknown_terminal");
  report->check(offered == settled + in_flight,
                format("offered %lld = served+dropped+evicted+expired+unknown "
                       "%lld + in flight %lld",
                       static_cast<long long>(offered),
                       static_cast<long long>(settled),
                       static_cast<long long>(in_flight)));
  report->attempted = generated;
  report->failed = std::max<std::int64_t>(0, missing);

  // --- end-to-end --------------------------------------------------------
  // Throughput and CPU cost are medians over the timed slots, so a burst
  // of interference from other tenants of a shared host moves a few
  // samples instead of the mean.
  const double share = generated == 0 ? 0.0 : double(verdicts.served) / double(generated);
  report->metric("setup_s", median(setup_s), "s");
  report->metric("peak_rss_mb", proc_peak_rss_mb(0), "MB");
  report->metric("verdict_p50_ms", quantile(verdicts.latency_ms, 0.50), "ms");
  report->metric("verdict_p90_ms", quantile(verdicts.latency_ms, 0.90), "ms");
  report->metric("cpu_us_per_frame", median(slot_cpu_us_per_request), "us");
  report->metric("success_share", share, "share");
  report->metric("terminal_slots_per_s",
                 double(kTerminals) / (median(slot_us) * 1e-6), "1/s");
  report->metric("verdict_delay_p99_slots",
                 quantile(verdicts.verdict_slots, 0.99), "slots");
  report->note(format("verdict latency over %zu pages, %lld served; %lld "
                      "requests in %lld timed slots; slot ms min %.1f p50 "
                      "%.1f p90 %.1f max %.1f",
                      verdicts.latency_ms.size(),
                      static_cast<long long>(verdicts.served),
                      static_cast<long long>(requests),
                      static_cast<long long>(window.slots),
                      quantile(slot_us, 0.0) * 1e-3, median(slot_us) * 1e-3,
                      quantile(slot_us, 0.9) * 1e-3, quantile(slot_us, 1.0) * 1e-3));
  if (!options.trace) return 0;

  // --- per layer (trace mode; timings over the traced half) --------------
  const double ingest = histogram_mean(at_trace, at_end, "daemon.phase.ingest_us");
  const double apply = histogram_mean(at_trace, at_end, "daemon.phase.apply_us");
  const double drain = histogram_mean(at_trace, at_end, "daemon.phase.drain_us");
  const double finalize = histogram_mean(at_trace, at_end, "daemon.phase.finalize_us");
  const double generate = mean(generate_us);
  const double queued = double(count("daemon.page.queued"));
  const double served = double(count("daemon.page.served"));
  const pcn::obs::GaugeSample* effective_m =
      after.find_gauge("daemon.plan.effective_m");
  const std::vector<double> traced_us(
      slot_us.end() - std::ptrdiff_t(generate_us.size()), slot_us.end());
  report->metric("daemon.run_slot_us.p50", median(traced_us), "us");
  report->metric("daemon.run_slot_us.p99", quantile(traced_us, 0.99), "us");
  report->metric("daemon.phase.ingest_us", ingest, "us");
  report->metric("daemon.phase.apply_us", apply, "us");
  report->metric("daemon.phase.drain_us", drain, "us");
  report->metric("daemon.phase.finalize_us", finalize, "us");
  report->metric("daemon.slot_overhead_us",
                 mean(traced_us) - (ingest + apply + drain + finalize), "us");
  report->metric("daemon.terminals", double(daemon->terminal_count()), "count");
  report->metric("daemon.update.applied", double(count("daemon.update.applied")), "count");
  report->metric("daemon.update.stale", double(count("daemon.update.stale")), "count");
  report->metric("daemon.page.queued", double(count("daemon.page.queued")), "count");
  report->metric("daemon.page.served", double(count("daemon.page.served")), "count");
  report->metric("daemon.page.dropped", double(count("daemon.page.dropped")), "count");
  report->metric("daemon.page.evicted", double(count("daemon.page.evicted")), "count");
  report->metric("daemon.page.expired", double(count("daemon.page.expired")), "count");
  report->metric("daemon.page.duplicate", double(count("daemon.page.duplicate")), "count");
  report->metric("queue.max_depth", double(daemon->max_queue_depth()), "count");
  report->metric("queue.served_per_queued", queued == 0 ? 0.0 : served / queued, "share");
  report->metric("queue_delay_p99_slots", quantile(verdicts.served_delay, 0.99), "slots");
  report->metric("fail_share", 1.0 - share, "share");
  report->metric("verdict.samples", double(verdicts.latency_ms.size()), "count");
  report->metric("verdict_p99_ms", quantile(verdicts.latency_ms, 0.99), "ms");
  report->metric("plan.effective_m", effective_m == nullptr ? 0.0 : effective_m->value, "count");
  report->metric("plan.widen", double(count("daemon.plan.widen")), "count");
  report->metric("plan.narrow", double(count("daemon.plan.narrow")), "count");
  report->metric("load_gen.generate_us", generate, "us");
  report->metric("load_gen.share_of_apply",
                 apply == 0.0 ? 0.0 : generate / (apply * double(kThreads)), "share");
  const double untraced = mean(untraced_us);
  report->metric("trace_overhead_pct",
                 untraced == 0.0 ? 0.0 : (mean(traced_us) / untraced - 1.0) * 100.0,
                 "%");
  return 0;
}

}  // namespace perfbench
