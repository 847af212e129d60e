// Bounded per-cell paging queue, after the osmo-bts BTS paging model
// (see SNIPPETS.md: paging.h).  Each cell owns one queue; the daemon
// enqueues a page for a terminal whose center cell this is, and drains
// the queue against the cell's PagingCapacityModel budget each slot.
//
// The osmo-bts behaviors carried over:
//   * dedup on enqueue (`paging_add_identity` returns -EEXIST): a
//     terminal already queued is not enqueued twice — its lifetime is
//     refreshed instead, keeping its original FIFO position;
//   * backpressure (`paging_buffer_space`): the queue holds at most
//     `max_pending` pages; an enqueue beyond that is rejected — the
//     caller reports the drop, the queue never grows;
//   * paging groups: terminals hash into `groups` round-robin classes
//     (terminal_id % groups, the GSM paging-group idea), and the drain
//     rotates across non-empty groups so one chatty group cannot starve
//     the rest; within a group service is strictly FIFO;
//   * lifetime expiry (`paging_lifetime`): a page not served within
//     `lifetime_slots` of its enqueue is discarded at drain time and
//     reported as expired, never served.
//
// Storage.  Each group is a PageRing: a FIFO over contiguous storage that
// doubles when full, capped at max_pending, so steady-state enqueue and
// serve never touch the allocator.  A daemon queue shard keeps its cells'
// queues in a CellQueueTable: cells interned into dense indices, queues
// in one flat vector, and an active list of the cells with pending pages,
// so a drain costs what the pending pages cost, not what the cells ever
// paged cost.
//
// The queue itself is single-threaded by design — pcnd partitions cells
// into fixed shards and each shard is touched by exactly one worker per
// slot, so no lock is needed here and results cannot depend on thread
// interleaving.
#pragma once

#include <cstdint>
#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/geometry/cell.hpp"

namespace pcn::daemon {

/// What a full queue does with a new identity.
enum class AdmissionPolicy : std::uint8_t {
  /// Reject the incoming page (classic tail drop; the osmo behavior).
  kDropNewest = 0,
  /// Evict the oldest pending page — the head of the group whose head
  /// has been waiting longest — and admit the incoming one.
  kDropOldest = 1,
  /// Evict the pending page with the most remaining SLA slack (the
  /// latest deadline), provided it has at least as much slack as the
  /// incoming page; otherwise reject the incoming page.
  kPriorityDelayBound = 2,
};

inline const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kDropNewest:
      return "drop_newest";
    case AdmissionPolicy::kDropOldest:
      return "drop_oldest";
    case AdmissionPolicy::kPriorityDelayBound:
      return "priority_delay_bound";
  }
  return "?";
}

struct PagingQueueConfig {
  /// Upper bound on pages pending in this cell (osmo num_paging_max).
  std::size_t max_pending = 64;
  /// Slots a page may wait before it expires unserved (osmo
  /// paging_lifetime).  A page enqueued in slot s is servable through
  /// slot s + lifetime_slots.
  std::int64_t lifetime_slots = 128;
  /// Round-robin paging groups; terminal_id % groups picks the group.
  int groups = 4;
  /// Full-queue behavior for a new identity.
  AdmissionPolicy admission = AdmissionPolicy::kDropNewest;
  /// Delay bound used to compute per-page deadlines for the priority
  /// policy.  0 means "no SLA": deadlines coincide with lifetime expiry.
  std::int64_t sla_delay_slots = 0;
};

/// One page waiting on the cell's paging channel.
struct PendingPage {
  std::uint64_t terminal_id = 0;
  std::uint64_t page_id = 0;
  std::uint32_t client = 0;        ///< outcome routing (0 = in-process)
  std::int64_t enqueued_slot = 0;
  std::int64_t expiry_slot = 0;    ///< last slot the page may be served in
  std::int64_t deadline_slot = 0;  ///< SLA deadline (priority eviction rank)
};

/// A page the drain put on the paging channel.
struct ServedPage {
  PendingPage page;
  std::int64_t served_slot = 0;
  std::size_t depth_before = 0;  ///< queue depth at serve time, incl. itself
};

enum class EnqueueResult : std::uint8_t {
  kQueued = 0,     ///< accepted; a new entry joined the queue
  kRefreshed = 1,  ///< duplicate identity; existing entry's lifetime renewed
  kFull = 2,       ///< rejected; the queue is at max_pending
  kEvicted = 3,    ///< accepted; an existing entry was evicted to make room
};

/// FIFO of pending pages over contiguous circular storage.  Capacity
/// starts at kInitialCapacity on the first push and doubles when full, up
/// to the `limit` the caller passes (the queue's max_pending); it never
/// shrinks, so a group that once held k pages serves k again without
/// allocating.
class PageRing {
 public:
  static constexpr std::size_t kInitialCapacity = 4;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  PendingPage& front() { return slots_[head_]; }
  const PendingPage& front() const { return slots_[head_]; }
  /// The i-th oldest entry.
  PendingPage& operator[](std::size_t i) { return slots_[at(i)]; }
  const PendingPage& operator[](std::size_t i) const { return slots_[at(i)]; }

  /// Appends at the tail; grows first when full (never beyond `limit`).
  void push_back(const PendingPage& page, std::size_t limit);
  void pop_front();
  /// Removes the i-th oldest entry, keeping the others' order.
  void erase(std::size_t i);

 private:
  std::size_t at(std::size_t i) const {
    const std::size_t index = head_ + i;
    return index >= slots_.size() ? index - slots_.size() : index;
  }
  void grow(std::size_t limit);

  std::vector<PendingPage> slots_;  ///< capacity == slots_.size()
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

class BoundedPagingQueue {
 public:
  explicit BoundedPagingQueue(const PagingQueueConfig& config);

  const PagingQueueConfig& config() const { return config_; }

  /// Pages currently pending (including not-yet-swept expired entries).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Remaining capacity before enqueues are rejected.
  std::size_t buffer_space() const { return config_.max_pending - size_; }

  /// Whether `terminal_id` already has a page pending.
  bool contains(std::uint64_t terminal_id) const;

  /// Enqueues a page observed in slot `slot`.  A terminal already pending
  /// is deduplicated: its expiry is refreshed (and the stored page/client
  /// keep their original values and FIFO position), result kRefreshed.
  /// On a full queue the configured AdmissionPolicy decides: kDropNewest
  /// rejects (kFull); kDropOldest and kPriorityDelayBound may instead
  /// evict a pending page — the victim is copied to `*evicted` and the
  /// result is kEvicted.  `evicted` may be null only under kDropNewest.
  EnqueueResult add(const PendingPage& page, PendingPage* evicted = nullptr);

  /// Serves up to `budget` pages in slot `slot`: rotates across groups
  /// (continuing from where the previous drain stopped), FIFO within a
  /// group.  Expired entries encountered at the head of a group are moved
  /// to `expired` without consuming budget and are never served.  Served
  /// pages append to `served` with their depth-before-drain.  Returns the
  /// number of pages served.
  int drain(std::int64_t slot, int budget, std::vector<ServedPage>* served,
            std::vector<PendingPage>* expired);

 private:
  std::int64_t deadline_for(std::int64_t enqueued_slot) const;
  bool evict_oldest(PendingPage* evicted);
  bool evict_most_slack(std::int64_t incoming_deadline, PendingPage* evicted);

  int group_of(std::uint64_t terminal_id) const {
    return static_cast<int>(terminal_id %
                            static_cast<std::uint64_t>(config_.groups));
  }

  PagingQueueConfig config_;
  std::vector<PageRing> groups_;
  std::size_t size_ = 0;
  int next_group_ = 0;  ///< where the next drain starts its rotation
};

/// One queue shard's cell queues.  Cells are interned into dense indices
/// 0..size()-1 by an open-addressing table (linear probing over a
/// power-of-two bucket array, load factor <= 1/2); the queues live in one
/// flat vector by index; and `active()` lists the indices whose queue has
/// pending pages, in the order they last became non-empty.  That order is
/// a pure function of the add/drain sequence, so a walk over it is as
/// reproducible as the calls that built it.
///
/// The two mutators keep the list exact: add() appends an index whose
/// queue goes from empty to non-empty, and prune_active() drops the
/// indices whose queue a drain emptied (only a drain empties a queue).
/// So enqueue through add(), never queue(index).add(), and prune after
/// draining through queue(index).
class CellQueueTable {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  explicit CellQueueTable(const PagingQueueConfig& config);

  /// Cells interned so far.
  std::size_t size() const { return cells_.size(); }
  /// Index of `cell`, or kNone when it was never interned.
  std::uint32_t find(geometry::Cell cell) const;
  /// Index of `cell`, interned with an empty queue on first sight.
  std::uint32_t intern(geometry::Cell cell);

  geometry::Cell cell(std::uint32_t index) const { return cells_[index]; }
  BoundedPagingQueue& queue(std::uint32_t index) { return queues_[index]; }
  const BoundedPagingQueue& queue(std::uint32_t index) const {
    return queues_[index];
  }

  /// BoundedPagingQueue::add on `index`'s queue, keeping the active list.
  EnqueueResult add(std::uint32_t index, const PendingPage& page,
                    PendingPage* evicted);

  /// Indices with pending pages (after prune_active(), exactly those).
  const std::vector<std::uint32_t>& active() const { return active_; }
  /// Drops the indices whose queue is now empty, keeping the others' order.
  void prune_active();

 private:
  struct Bucket {
    geometry::Cell cell{};
    std::uint32_t index = kNone;  ///< kNone = empty bucket
  };

  /// The bucket holding `cell`, or the empty bucket ending its probe run.
  std::size_t probe(geometry::Cell cell) const;
  void rehash(std::size_t buckets);

  PagingQueueConfig config_;
  std::vector<Bucket> buckets_;
  std::vector<geometry::Cell> cells_;
  std::vector<BoundedPagingQueue> queues_;
  std::vector<std::uint32_t> active_;
};

}  // namespace pcn::daemon
