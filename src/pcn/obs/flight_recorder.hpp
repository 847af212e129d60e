// Per-call flight recorder: a structured, low-overhead event log capturing
// the causal lifecycle of every incoming call — arrival, each polling
// cycle (which rings were swept, how many cells, what it cost), the
// located/answered event — interleaved with the location-update and
// residing-area-reset events that explain *why* the network's knowledge
// looked the way it did when the call arrived.
//
// Recording design.  The simulator appends events into per-worker-shard
// buffers that are preallocated up front (`FlightRecorderConfig::
// shard_capacity`), so the hot path never allocates and shards never share
// a cache line; a full shard drops further events and counts them instead
// of blocking.  Every event carries a (slot, terminal, seq) key — `seq`
// numbers the events a terminal emits within one slot — and terminals are
// fully independent, so the union of shard buffers is the same set of
// events at every worker-thread count.  `merged()` sorts by that key,
// making the merged recording (and everything exported from it) bit-
// identical at 1 or N threads whenever no events were dropped.
//
// Sampling.  With `sample_every = N`, 1 in N call lifecycles per terminal
// is recorded (selected by the terminal's own monotone call ordinal, so
// the choice is deterministic and thread-count independent), and likewise
// 1 in N location-update events.  Counts in the metrics registry stay
// exact; the recording is an unbiased 1/N sample of the per-call detail.
//
// This header is sim-agnostic on purpose (plain integer fields), sitting
// next to metrics.hpp / tsc.hpp below the simulator; the simulator-side
// wiring lives in sim/network.cpp and the exporters in trace_export.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace pcn::obs {

/// What happened; field semantics per type are documented on FlightEvent.
enum class FlightEventType : std::uint8_t {
  kCallArrival = 0,     ///< incoming call hit the paging machinery
  kPollCycle = 1,       ///< one polling cycle swept a group of cells
  kCallFound = 2,       ///< terminal answered; the call lifecycle closes
  kPageFallback = 3,    ///< schedule exhausted; expanding-ring recovery
  kLocationUpdate = 4,  ///< terminal sent a location update (delivered)
  kUpdateLost = 5,      ///< terminal sent an update that was lost
  kAreaReset = 6,       ///< knowledge center/radius reset (update or page)
  // Daemon (pcnd) bounded-paging-queue lifecycle events:
  kPageQueued = 7,      ///< page accepted onto a cell's bounded queue
  kPageServed = 8,      ///< page drained onto the paging channel
  kPageDropped = 9,     ///< page rejected at enqueue (queue full)
  kPageExpired = 10,    ///< page lifetime elapsed while still queued
};

/// Stable wire name ("call_arrival", "poll_cycle", ...).
std::string_view to_string(FlightEventType type);
/// Inverse of to_string; returns false for unknown names.
bool parse_flight_event_type(std::string_view name, FlightEventType* out);

/// One recorded event.  The (slot, terminal, seq) triple is a unique,
/// thread-count-independent total order.  Field use per type:
///   kCallArrival    call, distance = terminal's actual ring distance from
///                   the knowledge center, cells = containment radius the
///                   schedule will cover (where paging looks first).
///   kPollCycle      call, cycle (0-based), cells = cells swept, cost =
///                   poll cost accrued, ring_lo/ring_hi = nearest/farthest
///                   ring polled, found = terminal was in this group.
///   kCallFound      call, cycle = cycles used (1-based count), cells /
///                   cost = totals across the call, distance = arrival
///                   distance, found = located by the normal schedule
///                   (false when expanding-ring recovery was needed).
///   kPageFallback   call, cycle = first recovery cycle, distance = stale
///                   containment radius that missed the terminal.
///   kLocationUpdate cost = update cost U, distance = ring distance from
///                   the previous knowledge center.
///   kUpdateLost     same fields; the frame never reached the network.
///   kAreaReset      cells = new containment radius (center is now the
///                   terminal's cell; distance resets to 0).
///   kPageQueued     call = page id, cells = queue depth after enqueue,
///                   distance = paging group the page joined.
///   kPageServed     call = page id, cycle = queueing delay in slots,
///                   cells = queue depth before the drain, found = true.
///   kPageDropped    call = page id, cells = queue depth (== its bound),
///                   found = false (the page never reached the channel).
///   kPageExpired    call = page id, cycle = age in slots at expiry,
///                   found = false.
struct FlightEvent {
  std::int64_t slot = 0;
  std::int64_t terminal = 0;
  std::uint32_t seq = 0;  ///< order within (terminal, slot)
  FlightEventType type = FlightEventType::kCallArrival;
  std::uint64_t call = 0;  ///< per-terminal call ordinal (call events only)
  std::int32_t cycle = -1;
  std::int64_t cells = 0;
  double cost = 0.0;
  std::int32_t ring_lo = -1;
  std::int32_t ring_hi = -1;
  std::int64_t distance = -1;
  bool found = false;

  friend bool operator==(const FlightEvent&, const FlightEvent&) = default;
};

struct FlightRecorderConfig {
  /// Record 1 in N call lifecycles and 1 in N update events per terminal
  /// (N = 1 records everything).  Selection uses per-terminal ordinals, so
  /// it is deterministic at any thread count.
  std::uint64_t sample_every = 8;
  /// Events preallocated per worker shard; a full shard drops (and
  /// counts) further events rather than reallocating on the hot path.
  std::size_t shard_capacity = std::size_t{1} << 16;
};

class FlightRecorder {
 public:
  /// One worker's preallocated append-only log.  Only its owning worker
  /// writes it; the recorder reads it after the workers joined.
  class Shard {
   public:
    void append(const FlightEvent& event) noexcept {
      if (events_.size() < events_.capacity()) {
        events_.push_back(event);
      } else {
        ++dropped_;
      }
    }
    const std::vector<FlightEvent>& events() const { return events_; }
    std::uint64_t dropped() const { return dropped_; }

   private:
    friend class FlightRecorder;
    std::vector<FlightEvent> events_;
    std::uint64_t dropped_ = 0;
  };

  explicit FlightRecorder(FlightRecorderConfig config = {});

  const FlightRecorderConfig& config() const { return config_; }

  /// Whether the lifecycle with per-terminal ordinal `ordinal` is sampled.
  bool sampled(std::uint64_t ordinal) const {
    return ordinal % config_.sample_every == 0;
  }

  /// Preallocates shards [0, count); existing shards are kept.  Call
  /// before worker threads start (not thread-safe against shard()).
  void ensure_shards(std::size_t count);

  /// Shard `index` (must be < the count passed to ensure_shards).
  Shard& shard(std::size_t index) { return *shards_[index]; }

  std::size_t shard_count() const { return shards_.size(); }

  /// Events retained / dropped across all shards.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// All retained events in (slot, terminal, seq) order — deterministic
  /// for every worker-thread count as long as dropped() == 0.
  std::vector<FlightEvent> merged() const;

  /// Drops every retained event and resets the drop counters (the shard
  /// buffers keep their preallocated capacity).
  void clear();

 private:
  FlightRecorderConfig config_;
  /// unique_ptr per shard: node-stable addresses let workers hold a plain
  /// Shard* while ensure_shards grows the vector between runs.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pcn::obs
