// Pcnd slot-loop semantics: update/page routing, the bounded-queue
// verdict paths (served / duplicate / dropped / expired / unknown),
// page accounting identities, and the determinism contract — counters,
// delay histograms and sampled flight recordings bit-identical at any
// worker-thread count.  Also the slot pool (persistent workers, the
// rethrow path) and the dense queue storage (cell index, active list).
#include "pcn/daemon/daemon.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "pcn/daemon/load_gen.hpp"
#include "pcn/daemon/daemon_report.hpp"
#include "pcn/obs/trace_export.hpp"
#include "pcn/obs/tsc.hpp"
#include "pcn/stats/rng.hpp"

namespace pcn::daemon {
namespace {

DaemonRequest update_request(std::uint64_t terminal, std::uint64_t sequence,
                             geometry::Cell cell) {
  DaemonRequest request;
  request.kind = DaemonRequest::Kind::kUpdate;
  request.update.terminal_id = terminal;
  request.update.sequence = sequence;
  request.update.cell = cell;
  request.update.containment_radius = 2;
  return request;
}

DaemonRequest page_request(std::uint64_t page_id, std::uint64_t terminal) {
  DaemonRequest request;
  request.kind = DaemonRequest::Kind::kPage;
  request.page_id = page_id;
  request.terminal_id = terminal;
  return request;
}

PcndConfig base_config() {
  PcndConfig config;
  config.collect_outcomes = true;
  return config;
}

TEST(Pcnd, UpdateRegistersTerminalAndSequenceDedups) {
  Pcnd daemon(base_config());
  ASSERT_TRUE(daemon.submit(update_request(7, 2, {3, -1})));
  daemon.run_slots(1);
  ASSERT_TRUE(daemon.submit(update_request(7, 1, {9, 9})));  // stale
  daemon.run_slots(1);

  EXPECT_EQ(daemon.terminal_count(), 1u);
  const Pcnd::TerminalInfo info = daemon.terminal_info(7);
  ASSERT_TRUE(info.known);
  EXPECT_EQ(info.center, (geometry::Cell{3, -1}));
  EXPECT_EQ(info.sequence, 2u);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.update.applied"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.update.stale"), 1);
  EXPECT_FALSE(daemon.terminal_info(8).known);
}

TEST(Pcnd, TerminalDbStoresEveryIdIncludingZeroAndAllOnes) {
  Pcnd daemon(base_config());
  const std::uint64_t all_ones = ~std::uint64_t{0};
  // With their shards populated, unregistered 0 and ~0 stay unknown: no
  // key value doubles as "empty".
  ASSERT_TRUE(daemon.submit(update_request(16, 1, {0, 0})));
  ASSERT_TRUE(daemon.submit(update_request(all_ones - 16, 1, {0, 0})));
  daemon.run_slots(1);
  EXPECT_FALSE(daemon.terminal_info(0).known);
  EXPECT_FALSE(daemon.terminal_info(all_ones).known);
  ASSERT_TRUE(daemon.submit(update_request(0, 1, {1, 2})));
  ASSERT_TRUE(daemon.submit(update_request(all_ones, 9, {-4, 5})));
  daemon.run_slots(1);
  EXPECT_EQ(daemon.terminal_count(), 4u);
  const Pcnd::TerminalInfo zero = daemon.terminal_info(0);
  ASSERT_TRUE(zero.known);
  EXPECT_EQ(zero.center, (geometry::Cell{1, 2}));
  EXPECT_EQ(zero.sequence, 1u);
  const Pcnd::TerminalInfo top = daemon.terminal_info(all_ones);
  ASSERT_TRUE(top.known);
  EXPECT_EQ(top.center, (geometry::Cell{-4, 5}));
  EXPECT_EQ(top.sequence, 9u);
  EXPECT_EQ(top.radius, 2u);
  // Unregistered neighbors of both ends stay unknown, and a page to one
  // is dropped as an unknown terminal rather than aliasing a stored one.
  EXPECT_FALSE(daemon.terminal_info(all_ones - 32).known);
  EXPECT_FALSE(daemon.terminal_info(32).known);
  ASSERT_TRUE(daemon.submit(page_request(5, all_ones - 32)));
  daemon.run_slots(1);
  EXPECT_EQ(daemon.metrics_registry().snapshot().counter_value(
                "daemon.page.unknown_terminal"),
            1);
}

TEST(Pcnd, TerminalDbSurvivesCollisionsAndGrowth) {
  // Ids in one terminal shard whose mixed hashes share their low bits
  // collide in the table's first slot array; 3000 more shard-0 ids force
  // rehashes.  Every id must keep its own entry throughout.
  Pcnd daemon(base_config());
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 0; ids.size() < 12; id += 16) {
    if ((stats::rng_detail::mix64(id) & 15) == 7) ids.push_back(id);
  }
  for (std::uint64_t k = 1; k <= 3000; ++k) ids.push_back((k << 20) * 16);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto q = static_cast<std::int64_t>(i);
    ASSERT_TRUE(daemon.submit(update_request(ids[i], i + 1, {q, -q})));
    if (i == 11) daemon.run_slots(1);  // the colliding batch alone first
  }
  daemon.run_slots(1);
  EXPECT_EQ(daemon.terminal_count(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Pcnd::TerminalInfo info = daemon.terminal_info(ids[i]);
    ASSERT_TRUE(info.known) << "id " << ids[i];
    const auto q = static_cast<std::int64_t>(i);
    EXPECT_EQ(info.center, (geometry::Cell{q, -q})) << "id " << ids[i];
    EXPECT_EQ(info.sequence, i + 1) << "id " << ids[i];
  }
}

TEST(Pcnd, TerminalDbKeepsTheNewestSequence) {
  Pcnd daemon(base_config());
  const std::uint64_t id = 0xDEADBEEFCAFEull;
  ASSERT_TRUE(daemon.submit(update_request(id, 5, {5, 5})));
  daemon.run_slots(1);
  ASSERT_TRUE(daemon.submit(update_request(id, 3, {3, 3})));  // older
  daemon.run_slots(1);
  ASSERT_TRUE(daemon.submit(update_request(id, 5, {6, 6})));  // replay
  daemon.run_slots(1);
  EXPECT_EQ(daemon.terminal_info(id).center, (geometry::Cell{5, 5}));
  EXPECT_EQ(daemon.terminal_info(id).sequence, 5u);
  ASSERT_TRUE(daemon.submit(update_request(id, 6, {7, 7})));  // newer
  daemon.run_slots(1);
  EXPECT_EQ(daemon.terminal_info(id).center, (geometry::Cell{7, 7}));
  EXPECT_EQ(daemon.terminal_info(id).sequence, 6u);
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.update.applied"), 2);
  EXPECT_EQ(snapshot.counter_value("daemon.update.stale"), 2);
  EXPECT_EQ(daemon.terminal_count(), 1u);
}

TEST(Pcnd, PageForKnownTerminalIsServed) {
  PcndConfig config = base_config();
  config.sla_delay_slots = 4;
  Pcnd daemon(config);
  ASSERT_TRUE(daemon.submit(update_request(7, 1, {0, 0})));
  // Update and page land in the same slot; INGEST sorts updates before
  // pages for a terminal, so the page finds the center cell.
  ASSERT_TRUE(daemon.submit(page_request(100, 7)));
  daemon.run_slots(1);

  std::vector<PageOutcomeEvent> outcomes;
  daemon.drain_outcomes(&outcomes);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].page_id, 100u);
  EXPECT_EQ(outcomes[0].terminal_id, 7u);
  EXPECT_EQ(outcomes[0].kind, proto::PageOutcomeKind::kServed);
  EXPECT_EQ(outcomes[0].queue_delay_slots, 0);
  EXPECT_EQ(outcomes[0].slot, 0);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.page.queued"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.page.served"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.page.sla_violation"), 0);
  EXPECT_EQ(daemon.queue_depth({0, 0}), 0);
}

TEST(Pcnd, UnknownTerminalPageDropsImmediately) {
  Pcnd daemon(base_config());
  ASSERT_TRUE(daemon.submit(page_request(5, 1234)));
  daemon.run_slots(1);

  std::vector<PageOutcomeEvent> outcomes;
  daemon.drain_outcomes(&outcomes);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, proto::PageOutcomeKind::kDropped);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.page.unknown_terminal"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.page.queued"), 0);
  EXPECT_EQ(snapshot.counter_value("daemon.page.sla_violation"), 1);
}

TEST(Pcnd, DuplicatePageRefreshesNotDuplicates) {
  Pcnd daemon(base_config());
  ASSERT_TRUE(daemon.submit(update_request(7, 1, {0, 0})));
  ASSERT_TRUE(daemon.submit(page_request(1, 7)));
  ASSERT_TRUE(daemon.submit(page_request(2, 7)));
  // Both submits land in slot 0 before any drain, so the second is a
  // duplicate regardless of the slot budget.
  daemon.run_slots(1);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.page.queued"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.page.duplicate"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.page.served"), 1);
}

TEST(Pcnd, FullQueueDropsAndExpiryFiresUnderStarvedBudget) {
  PcndConfig config = base_config();
  // Budget ~1 page every 4 slots, tiny queue, short lifetime: with 4
  // terminals paged in one cell, some are dropped at the bound and the
  // rest mostly expire before the channel gets credit.
  config.capacity = capacity::PagingCapacityModel(1, 4.0);
  config.queue.max_pending = 2;
  config.queue.lifetime_slots = 2;
  config.queue.groups = 1;
  Pcnd daemon(config);
  for (std::uint64_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(daemon.submit(update_request(t, 1, {0, 0})));
    ASSERT_TRUE(daemon.submit(page_request(10 + t, t)));
  }
  daemon.run_slots(8);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.page.queued"), 2);
  EXPECT_EQ(snapshot.counter_value("daemon.page.dropped"), 2);
  EXPECT_EQ(snapshot.counter_value("daemon.page.queued") +
                snapshot.counter_value("daemon.page.dropped"),
            4);
  EXPECT_EQ(snapshot.counter_value("daemon.page.served") +
                snapshot.counter_value("daemon.page.expired"),
            2);
  EXPECT_GE(snapshot.counter_value("daemon.page.expired"), 1);
  EXPECT_EQ(daemon.max_queue_depth(), 2);

  std::vector<PageOutcomeEvent> outcomes;
  daemon.drain_outcomes(&outcomes);
  EXPECT_EQ(outcomes.size(), 4u);
}

TEST(Pcnd, RingFullRejectsAndCounts) {
  PcndConfig config = base_config();
  config.ring_capacity = 4;
  Pcnd daemon(config);
  int accepted = 0;
  for (std::uint64_t t = 0; t < 6; ++t) {
    if (daemon.submit(update_request(t, 1, {0, 0}))) ++accepted;
  }
  EXPECT_EQ(accepted, 4);
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.request.rejected_ring_full"), 2);
  EXPECT_EQ(snapshot.counter_value("daemon.request.update"), 4);
}

TEST(Pcnd, SlaCountsLateServes) {
  PcndConfig config = base_config();
  config.capacity = capacity::PagingCapacityModel(1, 2.0);  // 1 page / 2 slots
  config.sla_delay_slots = 1;
  config.queue.groups = 1;
  Pcnd daemon(config);
  for (std::uint64_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(daemon.submit(update_request(t, 1, {0, 0})));
    ASSERT_TRUE(daemon.submit(page_request(10 + t, t)));
  }
  daemon.run_slots(8);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.page.served"), 3);
  // Serves land in slots 1, 3, 5 -> delays 1, 3, 5; two exceed the
  // 1-slot SLA.
  EXPECT_EQ(snapshot.counter_value("daemon.page.sla_violation"), 2);
  const std::vector<std::int64_t> delays = daemon.delay_histogram();
  ASSERT_EQ(delays.size(), 6u);
  EXPECT_EQ(delays[1], 1);
  EXPECT_EQ(delays[3], 1);
  EXPECT_EQ(delays[5], 1);
}

TEST(Pcnd, DrainOutcomesRequiresCollectFlag) {
  PcndConfig config;  // collect_outcomes = false
  Pcnd daemon(config);
  std::vector<PageOutcomeEvent> outcomes;
  EXPECT_THROW(daemon.drain_outcomes(&outcomes), InvalidArgument);
}

TEST(Pcnd, RejectsBadConfig) {
  PcndConfig config;
  config.threads = 0;
  EXPECT_THROW(Pcnd{config}, InvalidArgument);
  config = PcndConfig{};
  config.terminal_shards = 0;
  EXPECT_THROW(Pcnd{config}, InvalidArgument);
  config = PcndConfig{};
  config.queue_shards = 0;
  EXPECT_THROW(Pcnd{config}, InvalidArgument);
  config = PcndConfig{};
  config.sla_delay_slots = -1;
  EXPECT_THROW(Pcnd{config}, InvalidArgument);
}

TEST(Pcnd, FlightRecorderCapturesPageLifecycles) {
  PcndConfig config = base_config();
  config.record_flight = true;
  config.flight_sample_every = 1;  // sample every page
  Pcnd daemon(config);
  ASSERT_TRUE(daemon.submit(update_request(7, 1, {0, 0})));
  ASSERT_TRUE(daemon.submit(page_request(100, 7)));
  ASSERT_TRUE(daemon.submit(page_request(5, 1234)));  // unknown -> dropped
  daemon.run_slots(1);

  ASSERT_NE(daemon.flight_recorder(), nullptr);
  const std::vector<obs::FlightEvent> events =
      daemon.flight_recorder()->merged();
  int queued = 0;
  int served = 0;
  int dropped = 0;
  for (const obs::FlightEvent& event : events) {
    switch (event.type) {
      case obs::FlightEventType::kPageQueued:
        ++queued;
        EXPECT_EQ(event.terminal, 7);
        break;
      case obs::FlightEventType::kPageServed:
        ++served;
        EXPECT_EQ(event.call, 100);
        break;
      case obs::FlightEventType::kPageDropped:
        ++dropped;
        EXPECT_EQ(event.terminal, 1234);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(queued, 1);
  EXPECT_EQ(served, 1);
  EXPECT_EQ(dropped, 1);
}

/// Collapses a run into a comparable fingerprint: every counter, the
/// exact delay histogram, and the merged flight recording.
std::string run_fingerprint(int threads, std::uint64_t seed) {
  PcndConfig config;
  config.threads = threads;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.queue.max_pending = 8;
  config.queue.lifetime_slots = 12;
  config.sla_delay_slots = 4;
  config.record_flight = true;
  config.flight_sample_every = 4;
  Pcnd daemon(config);

  ClosedLoopConfig workload_config;
  workload_config.seed = seed;
  workload_config.terminals = 600;
  workload_config.region = 6;  // 36 cells -> well past the capacity knee
  workload_config.call_prob = 0.1;
  workload_config.threshold = 2;
  ClosedLoopWorkload workload(workload_config);
  daemon.run_slots(48, &workload);

  std::string fingerprint;
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "daemon.run.wall_ns") continue;  // wall time varies
    fingerprint += counter.name + "=" + std::to_string(counter.value) + "\n";
  }
  for (const std::int64_t count : daemon.delay_histogram()) {
    fingerprint += std::to_string(count) + ",";
  }
  fingerprint += "\n";
  fingerprint += obs::to_trace_jsonl({}, daemon.flight_recorder()->merged());
  fingerprint += "outstanding=" + std::to_string(workload.outstanding_count());
  fingerprint +=
      " served=" + std::to_string(workload.outcomes_served()) +
      " dropped=" + std::to_string(workload.outcomes_dropped()) +
      " expired=" + std::to_string(workload.outcomes_expired());
  return fingerprint;
}

TEST(Pcnd, BitIdenticalResultsAcrossThreadCounts) {
  const std::string one = run_fingerprint(1, 42);
  const std::string two = run_fingerprint(2, 42);
  const std::string four = run_fingerprint(4, 42);
  const std::string five = run_fingerprint(5, 42);  // odd, non-divisor
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, five);
  // Sanity: the scenario actually exercised the overload paths.
  EXPECT_NE(one.find("daemon.page.served"), std::string::npos);
}

TEST(Pcnd, ClosedLoopWorkloadKeepsOnePageInFlight) {
  PcndConfig config;
  config.capacity = capacity::PagingCapacityModel(1, 2.0);
  config.queue.max_pending = 4;
  config.queue.lifetime_slots = 6;
  Pcnd daemon(config);

  ClosedLoopConfig workload_config;
  workload_config.terminals = 200;
  workload_config.region = 4;
  workload_config.call_prob = 0.2;
  ClosedLoopWorkload workload(workload_config);
  daemon.run_slots(40, &workload);

  // Conservation: every submitted page is either settled back to the
  // workload or still in flight.
  EXPECT_EQ(workload.pages_submitted(),
            workload.outcomes_served() + workload.outcomes_dropped() +
                workload.outcomes_expired() + workload.outstanding_count());
  EXPECT_GT(workload.pages_submitted(), 0);
  EXPECT_GT(workload.updates_sent(), 0);

  // Daemon-side accounting: offered = queued + duplicate + dropped +
  // unknown, and settled = served + expired + dropped + unknown.
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  const std::int64_t offered =
      snapshot.counter_value("daemon.request.page");
  EXPECT_EQ(offered, workload.pages_submitted());
  EXPECT_EQ(offered, snapshot.counter_value("daemon.page.queued") +
                         snapshot.counter_value("daemon.page.duplicate") +
                         snapshot.counter_value("daemon.page.dropped") +
                         snapshot.counter_value("daemon.page.unknown_terminal"));
  // The closed-loop generator registers a terminal before paging it.
  EXPECT_EQ(snapshot.counter_value("daemon.page.unknown_terminal"), 0);
}

TEST(Pcnd, PhasesAreTimedOncePerSlotAndTheRunOnTheSteadyClock) {
  Pcnd daemon(base_config());
  const std::int64_t before = obs::monotonic_ns();
  daemon.run_slots(12);
  const std::int64_t elapsed = obs::monotonic_ns() - before;

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  for (const char* name :
       {"daemon.phase.ingest_us", "daemon.phase.apply_us",
        "daemon.phase.drain_us", "daemon.phase.finalize_us",
        "daemon.phase.enqueue_us", "daemon.phase.serve_us"}) {
    SCOPED_TRACE(name);
    const obs::HistogramSample* histogram = snapshot.find_histogram(name);
    ASSERT_NE(histogram, nullptr);
    EXPECT_EQ(histogram->bounds, obs::phase_us_buckets());
    EXPECT_EQ(histogram->count, 12);
  }
  // Generate time is observed only for slots that ran a workload.
  const obs::HistogramSample* workload =
      snapshot.find_histogram("daemon.phase.workload_us");
  ASSERT_NE(workload, nullptr);
  EXPECT_EQ(workload->bounds, obs::phase_us_buckets());
  EXPECT_EQ(workload->count, 0);
  // The whole-run total is a monotonic_ns() difference taken inside the
  // caller's own bracket on the same clock.
  const std::int64_t wall_ns = snapshot.counter_value("daemon.run.wall_ns");
  EXPECT_GT(wall_ns, 0);
  EXPECT_LE(wall_ns, elapsed);
}

TEST(Pcnd, WorkloadPhaseIsTimedPerSlotWithAWorkload) {
  Pcnd daemon(base_config());
  ClosedLoopConfig workload_config;
  workload_config.terminals = 64;
  ClosedLoopWorkload workload(workload_config);
  daemon.run_slots(5, &workload);
  daemon.run_slots(3);
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.find_histogram("daemon.phase.workload_us")->count, 5);
  EXPECT_EQ(snapshot.find_histogram("daemon.phase.drain_us")->count, 8);
}

/// Throws from generate on one terminal shard; the others run normally.
class ThrowingWorkload final : public SlotWorkload {
 public:
  explicit ThrowingWorkload(int bad_shard) : bad_shard_(bad_shard) {}
  void generate(int shard, int, std::int64_t, RequestSink&) override {
    if (shard == bad_shard_) throw std::runtime_error("generate failed");
  }
  void on_outcome(std::uint64_t, proto::PageOutcomeKind,
                  std::int64_t) override {}

 private:
  int bad_shard_;
};

TEST(Pcnd, ThrowingWorkloadRethrowsAndThePoolShutsDown) {
  PcndConfig config = base_config();
  config.threads = 4;
  {
    Pcnd daemon(config);
    ThrowingWorkload workload(5);
    EXPECT_THROW(daemon.run_slots(3, &workload), std::runtime_error);
    // The failed slot never reached FINALIZE.
    EXPECT_EQ(daemon.now(), 0);
    // The pool is idle and reusable after the rethrow.
    EXPECT_THROW(daemon.run_slots(1, &workload), std::runtime_error);
  }  // ~Pcnd joins the parked workers; reaching here is the check.
  SUCCEED();
}

/// Everything a caller can observe of a closed-loop run, driven either in
/// one run_slots(slots) call or in `slots` run_slots(1) calls.
std::string stepped_fingerprint(int threads, bool one_call) {
  PcndConfig config;
  config.threads = threads;
  config.collect_outcomes = true;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.queue.max_pending = 6;
  config.queue.lifetime_slots = 10;
  config.queue.admission = AdmissionPolicy::kDropOldest;
  config.sla_delay_slots = 4;
  config.record_flight = true;
  config.flight_sample_every = 3;
  config.plan.mode = DelayPlanConfig::Mode::kFeedback;
  Pcnd daemon(config);

  ClosedLoopConfig workload_config;
  workload_config.seed = 7;
  workload_config.terminals = 500;
  workload_config.region = 5;
  workload_config.call_prob = 0.1;
  workload_config.threshold = 2;
  ClosedLoopWorkload workload(workload_config);
  constexpr std::int64_t kSlots = 40;
  if (one_call) {
    daemon.run_slots(kSlots, &workload);
  } else {
    for (std::int64_t i = 0; i < kSlots; ++i) daemon.run_slots(1, &workload);
  }

  std::string fingerprint;
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "daemon.run.wall_ns") continue;
    fingerprint += counter.name + "=" + std::to_string(counter.value) + "\n";
  }
  for (const std::int64_t count : daemon.delay_histogram()) {
    fingerprint += std::to_string(count) + ",";
  }
  fingerprint += "\nm=" + std::to_string(daemon.planner()->effective_m()) +
                 " ewma=" +
                 std::to_string(daemon.planner()->global_ewma_q16()) + "\n";
  std::vector<PageOutcomeEvent> outcomes;
  daemon.drain_outcomes(&outcomes);
  for (const PageOutcomeEvent& o : outcomes) {
    fingerprint += std::to_string(o.slot) + ":" + std::to_string(o.page_id) +
                   ":" + std::to_string(o.terminal_id) + ":" +
                   std::to_string(static_cast<int>(o.kind)) + ":" +
                   std::to_string(o.queue_delay_slots) + ":" +
                   std::to_string(o.queue_depth) + "\n";
  }
  fingerprint += obs::to_trace_jsonl({}, daemon.flight_recorder()->merged());
  return fingerprint;
}

TEST(Pcnd, SteppedRunsMatchOneCallAtAnyThreadCount) {
  const std::string reference = stepped_fingerprint(1, /*one_call=*/true);
  // Sanity: the scenario produced verdicts of more than one kind.
  EXPECT_NE(reference.find(":0:"), std::string::npos);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(stepped_fingerprint(threads, /*one_call=*/true), reference);
    EXPECT_EQ(stepped_fingerprint(threads, /*one_call=*/false), reference);
  }
}

std::size_t process_thread_count() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(Pcnd, SlotPoolThreadsPersistAcrossCalls) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  PcndConfig config = base_config();
  config.threads = 4;
  // A first pool's life starts any helper thread the runtime keeps (a
  // sanitizer's background thread, say), so the baseline excludes it.
  { Pcnd warm(config); }
  const std::size_t before = process_thread_count();
  {
    Pcnd daemon(config);
    ASSERT_TRUE(daemon.submit(update_request(1, 1, {0, 0})));
    daemon.run_slots(1);
    const std::size_t after_one = process_thread_count();
    EXPECT_EQ(after_one, before + 3);  // threads - 1 parked workers
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(daemon.submit(page_request(10 + i, 1)));
      daemon.run_slots(1);
    }
    EXPECT_EQ(process_thread_count(), after_one);
    EXPECT_EQ(daemon.metrics_registry().snapshot().counter_value(
                  "daemon.page.served"),
              500);
  }
  EXPECT_EQ(process_thread_count(), before);
}

TEST(Pcnd, QueueIndexGrowsPastItsInitialCapacity) {
  // 600 cells over 16 queue shards is ~38 per shard: every shard's index
  // (16 buckets at first, kept at most half full) rehashes at least twice.
  // A starved channel keeps each page pending, so every cell's depth
  // reads back through the grown index.
  PcndConfig config = base_config();
  config.capacity = capacity::PagingCapacityModel(1, 1e6);
  config.queue.lifetime_slots = 1000;
  Pcnd daemon(config);
  constexpr std::int64_t kCells = 600;
  for (std::int64_t i = 0; i < kCells; ++i) {
    const auto terminal = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(daemon.submit(update_request(terminal, 1, {i, -2 * i})));
    ASSERT_TRUE(daemon.submit(page_request(1000 + terminal, terminal)));
  }
  daemon.run_slots(2);
  for (std::int64_t i = 0; i < kCells; ++i) {
    ASSERT_EQ(daemon.queue_depth({i, -2 * i}), 1) << "cell " << i;
  }
  EXPECT_EQ(daemon.metrics_registry().snapshot().counter_value(
                "daemon.page.queued"),
            kCells);
}

TEST(Pcnd, QueueDepthOfANeverSeenCellIsZero) {
  Pcnd daemon(base_config());
  EXPECT_EQ(daemon.queue_depth({3, 4}), 0);  // no cell interned anywhere
  PcndConfig config = base_config();
  config.capacity = capacity::PagingCapacityModel(1, 1e6);
  Pcnd starved(config);
  for (std::int64_t i = 0; i < 64; ++i) {
    const auto terminal = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(starved.submit(update_request(terminal, 1, {i, i})));
    ASSERT_TRUE(starved.submit(page_request(100 + terminal, terminal)));
  }
  starved.run_slots(1);
  EXPECT_EQ(starved.queue_depth({0, 0}), 1);
  // Every shard now holds interned cells; unseen ones still read 0.
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(starved.queue_depth({i, i + 1}), 0) << "cell " << i;
  }
}

TEST(Pcnd, LiveStatsReadZeroOnceEveryQueueHasEmptied) {
  PcndConfig config = base_config();
  config.live_stats = true;
  config.capacity = capacity::PagingCapacityModel(1, 2.0);  // 1 per 2 slots
  config.queue.groups = 1;
  Pcnd daemon(config);
  for (std::uint64_t t = 0; t < 6; ++t) {
    ASSERT_TRUE(daemon.submit(update_request(t, 1, {0, 0})));
    ASSERT_TRUE(daemon.submit(update_request(100 + t, 1, {5, -5})));
    ASSERT_TRUE(daemon.submit(page_request(t, t)));
    ASSERT_TRUE(daemon.submit(page_request(100 + t, 100 + t)));
  }
  daemon.run_slots(1);
  LiveQueueStats stats = daemon.live_queue_stats();
  EXPECT_EQ(stats.cells_pending, 2);
  EXPECT_GT(stats.total_pending, 0);
  ASSERT_EQ(stats.deepest.size(), 2u);

  daemon.run_slots(40);
  EXPECT_EQ(daemon.queue_depth({0, 0}), 0);
  EXPECT_EQ(daemon.queue_depth({5, -5}), 0);
  stats = daemon.live_queue_stats();
  EXPECT_EQ(stats.slot, 40);
  EXPECT_EQ(stats.total_pending, 0);
  EXPECT_EQ(stats.cells_pending, 0);
  EXPECT_TRUE(stats.deepest.empty());
  EXPECT_EQ(stats.max_depth_ever, 6);
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.find_gauge("daemon.queue.depth_pending")->value, 0.0);
  EXPECT_EQ(snapshot.find_gauge("daemon.queue.cells_pending")->value, 0.0);
  EXPECT_EQ(snapshot.counter_value("daemon.page.served"), 12);
}

TEST(CellQueueTable, InternsDenselyAndFindsThroughGrowth) {
  PagingQueueConfig config;
  CellQueueTable table(config);
  EXPECT_EQ(table.find({0, 0}), CellQueueTable::kNone);
  std::vector<geometry::Cell> cells;
  for (std::int64_t q = -20; q < 20; ++q) {
    for (std::int64_t r = -5; r < 5; ++r) cells.push_back({q, r});
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_EQ(table.intern(cells[i]), i);
    ASSERT_EQ(table.intern(cells[i]), i);  // idempotent
  }
  EXPECT_EQ(table.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_EQ(table.find(cells[i]), i);
    ASSERT_EQ(table.cell(static_cast<std::uint32_t>(i)), cells[i]);
  }
  EXPECT_EQ(table.find({1000, 1000}), CellQueueTable::kNone);
}

TEST(CellQueueTable, ActiveListTracksNonEmptyQueuesInOrder) {
  PagingQueueConfig config;
  config.groups = 1;
  CellQueueTable table(config);
  const std::uint32_t a = table.intern({1, 0});
  const std::uint32_t b = table.intern({2, 0});
  const std::uint32_t c = table.intern({3, 0});
  PendingPage page;
  PendingPage evicted;
  page.terminal_id = 1;
  table.add(c, page, &evicted);
  page.terminal_id = 2;
  table.add(a, page, &evicted);
  page.terminal_id = 3;
  table.add(a, page, &evicted);  // already active: not listed twice
  EXPECT_EQ(table.active(), (std::vector<std::uint32_t>{c, a}));
  EXPECT_EQ(table.queue(b).size(), 0u);

  // Serve c empty; a keeps one page.  Pruning drops c, keeps a's place.
  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  table.queue(c).drain(0, 1, &served, &expired);
  table.queue(a).drain(0, 1, &served, &expired);
  table.prune_active();
  EXPECT_EQ(table.active(), (std::vector<std::uint32_t>{a}));
  page.terminal_id = 4;
  table.add(c, page, &evicted);  // re-activated: goes to the back
  EXPECT_EQ(table.active(), (std::vector<std::uint32_t>{a, c}));
}

TEST(PageRing, StaysFifoWhileGrowingAcrossTheWrap) {
  PageRing ring;
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  const auto push = [&] {
    PendingPage page;
    page.terminal_id = next_in++;
    ring.push_back(page, /*limit=*/64);
  };
  for (int i = 0; i < 3; ++i) push();
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(ring.front().terminal_id, next_out++);
    ring.pop_front();
  }
  // The head now sits mid-array; pushes wrap, then force growth.
  for (int i = 0; i < 40; ++i) push();
  ASSERT_EQ(ring.size(), 41u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    ASSERT_EQ(ring[i].terminal_id, next_out + i);
  }
  ring.erase(5);  // drops terminal next_out + 5, keeps the rest in order
  ASSERT_EQ(ring.size(), 40u);
  EXPECT_EQ(ring[4].terminal_id, next_out + 4);
  EXPECT_EQ(ring[5].terminal_id, next_out + 6);
  while (!ring.empty()) {
    if (next_out == 7) ++next_out;  // the erased entry
    ASSERT_EQ(ring.front().terminal_id, next_out++);
    ring.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(DaemonReport, AccountsAndSerializes) {
  PcndConfig config;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.sla_delay_slots = 4;
  Pcnd daemon(config);
  ClosedLoopConfig workload_config;
  workload_config.terminals = 300;
  workload_config.region = 4;
  workload_config.call_prob = 0.15;
  ClosedLoopWorkload workload(workload_config);
  daemon.run_slots(32, &workload);

  const DaemonRunReport report = make_daemon_report(
      daemon, workload_config.seed,
      static_cast<std::int64_t>(workload_config.terminals));
  EXPECT_EQ(report.slots, 32);
  EXPECT_EQ(report.terminals, 300);
  EXPECT_EQ(report.pages_offered,
            report.pages_queued + report.pages_duplicate +
                report.pages_dropped + report.pages_unknown);
  EXPECT_GT(report.pages_served, 0);
  EXPECT_GE(report.drop_rate, 0.0);
  EXPECT_LE(report.drop_rate, 1.0);
  EXPECT_GE(report.delay_p99, report.delay_p50);
  EXPECT_GE(report.delay_max, report.delay_p99);

  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"schema\":\"pcn.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"daemon\""), std::string::npos);
  EXPECT_NE(json.find("\"drop_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_delay_slots\""), std::string::npos);
  EXPECT_NE(json.find("\"sla\""), std::string::npos);
}

}  // namespace
}  // namespace pcn::daemon
