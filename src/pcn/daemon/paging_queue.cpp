#include "pcn/daemon/paging_queue.hpp"

#include <algorithm>
#include <utility>

namespace pcn::daemon {

void PageRing::grow(std::size_t limit) {
  PCN_ASSERT(count_ < limit);
  std::vector<PendingPage> grown(
      std::min(std::max(kInitialCapacity, slots_.size() * 2), limit));
  for (std::size_t i = 0; i < count_; ++i) grown[i] = (*this)[i];
  slots_ = std::move(grown);
  head_ = 0;
}

void PageRing::push_back(const PendingPage& page, std::size_t limit) {
  if (count_ == slots_.size()) grow(limit);
  slots_[at(count_)] = page;
  ++count_;
}

void PageRing::pop_front() {
  PCN_ASSERT(count_ > 0);
  head_ = at(1);
  --count_;
}

void PageRing::erase(std::size_t i) {
  PCN_ASSERT(i < count_);
  for (std::size_t j = i + 1; j < count_; ++j) (*this)[j - 1] = (*this)[j];
  --count_;
}

BoundedPagingQueue::BoundedPagingQueue(const PagingQueueConfig& config)
    : config_(config),
      groups_(static_cast<std::size_t>(config.groups)) {
  PCN_EXPECT(config_.max_pending >= 1,
             "BoundedPagingQueue: max_pending must be >= 1");
  PCN_EXPECT(config_.lifetime_slots >= 0,
             "BoundedPagingQueue: lifetime_slots must be >= 0");
  PCN_EXPECT(config_.groups >= 1, "BoundedPagingQueue: groups must be >= 1");
}

bool BoundedPagingQueue::contains(std::uint64_t terminal_id) const {
  const PageRing& group =
      groups_[static_cast<std::size_t>(group_of(terminal_id))];
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (group[i].terminal_id == terminal_id) return true;
  }
  return false;
}

std::int64_t BoundedPagingQueue::deadline_for(std::int64_t enqueued_slot) const {
  // With no SLA configured the deadline collapses onto lifetime expiry:
  // "slack" then means "slots until the page is discarded anyway".
  const std::int64_t bound = config_.sla_delay_slots > 0
                                 ? config_.sla_delay_slots
                                 : config_.lifetime_slots;
  return enqueued_slot + bound;
}

bool BoundedPagingQueue::evict_oldest(PendingPage* evicted) {
  // The victim group is the one whose *head* has waited longest; evicting
  // a head (never a middle entry) keeps FIFO-within-group intact for the
  // survivors.  Ties break toward the lowest group index so the choice is
  // a pure function of queue contents.
  int victim = -1;
  for (int g = 0; g < config_.groups; ++g) {
    const auto& group = groups_[static_cast<std::size_t>(g)];
    if (group.empty()) continue;
    if (victim < 0 ||
        group.front().enqueued_slot <
            groups_[static_cast<std::size_t>(victim)].front().enqueued_slot) {
      victim = g;
    }
  }
  if (victim < 0) return false;
  auto& group = groups_[static_cast<std::size_t>(victim)];
  *evicted = group.front();
  group.pop_front();
  --size_;
  return true;
}

bool BoundedPagingQueue::evict_most_slack(std::int64_t incoming_deadline,
                                          PendingPage* evicted) {
  // The victim is the pending page with the latest deadline (most SLA
  // slack).  Ties break toward the latest-scanned entry, so among equal
  // deadlines the most recently enqueued page gives way to the older
  // ones already close to service.  A victim with *less* slack than the
  // incoming page would invert the priority, so then nobody is evicted.
  int victim_group = -1;
  std::size_t victim_index = 0;
  std::int64_t victim_deadline = 0;
  for (int g = 0; g < config_.groups; ++g) {
    const auto& group = groups_[static_cast<std::size_t>(g)];
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (victim_group < 0 || group[i].deadline_slot >= victim_deadline) {
        victim_group = g;
        victim_index = i;
        victim_deadline = group[i].deadline_slot;
      }
    }
  }
  if (victim_group < 0 || victim_deadline < incoming_deadline) return false;
  auto& group = groups_[static_cast<std::size_t>(victim_group)];
  *evicted = group[victim_index];
  group.erase(victim_index);
  --size_;
  return true;
}

EnqueueResult BoundedPagingQueue::add(const PendingPage& page,
                                      PendingPage* evicted) {
  auto& group = groups_[static_cast<std::size_t>(group_of(page.terminal_id))];
  // Dedup before the capacity check (osmo paging_add_identity): a refresh
  // of an already-pending terminal must succeed even on a full queue.
  for (std::size_t i = 0; i < group.size(); ++i) {
    PendingPage& pending = group[i];
    if (pending.terminal_id == page.terminal_id) {
      pending.expiry_slot =
          std::max(pending.expiry_slot,
                   page.enqueued_slot + config_.lifetime_slots);
      pending.deadline_slot =
          std::max(pending.deadline_slot, deadline_for(page.enqueued_slot));
      return EnqueueResult::kRefreshed;
    }
  }
  PendingPage accepted = page;
  accepted.expiry_slot = page.enqueued_slot + config_.lifetime_slots;
  accepted.deadline_slot = deadline_for(page.enqueued_slot);
  EnqueueResult result = EnqueueResult::kQueued;
  if (size_ >= config_.max_pending) {
    switch (config_.admission) {
      case AdmissionPolicy::kDropNewest:
        return EnqueueResult::kFull;
      case AdmissionPolicy::kDropOldest:
        PCN_EXPECT(evicted != nullptr,
                   "BoundedPagingQueue: eviction policy needs an out-param");
        if (!evict_oldest(evicted)) return EnqueueResult::kFull;
        result = EnqueueResult::kEvicted;
        break;
      case AdmissionPolicy::kPriorityDelayBound:
        PCN_EXPECT(evicted != nullptr,
                   "BoundedPagingQueue: eviction policy needs an out-param");
        if (!evict_most_slack(accepted.deadline_slot, evicted)) {
          return EnqueueResult::kFull;
        }
        result = EnqueueResult::kEvicted;
        break;
    }
  }
  group.push_back(accepted, config_.max_pending);
  ++size_;
  return result;
}

namespace {

/// Pops expired entries off the head of `group` into `expired`.
void pop_expired_heads(PageRing& group, std::int64_t slot,
                       std::vector<PendingPage>* expired, std::size_t* size) {
  while (!group.empty() && group.front().expiry_slot < slot) {
    expired->push_back(group.front());
    group.pop_front();
    --*size;
  }
}

}  // namespace

int BoundedPagingQueue::drain(std::int64_t slot, int budget,
                              std::vector<ServedPage>* served,
                              std::vector<PendingPage>* expired) {
  PCN_EXPECT(budget >= 0, "BoundedPagingQueue: budget must be >= 0");
  // Expiry is a property of the slot, not of the budget: sweep the group
  // heads first so expired pages surface even when the channel has no
  // credit this slot.  (An expired entry stuck behind an unexpired head
  // is swept when it reaches the head — the serve path re-checks expiry,
  // so it can never be served.)
  for (auto& group : groups_) {
    pop_expired_heads(group, slot, expired, &size_);
  }
  int served_count = 0;
  int g = next_group_;
  while (served_count < budget && size_ > 0) {
    auto& group = groups_[static_cast<std::size_t>(g)];
    pop_expired_heads(group, slot, expired, &size_);
    if (!group.empty()) {
      ServedPage entry;
      entry.page = group.front();
      entry.served_slot = slot;
      entry.depth_before = size_;
      group.pop_front();
      --size_;
      served->push_back(entry);
      ++served_count;
    }
    g = (g + 1) % config_.groups;
  }
  if (budget > 0) next_group_ = g;
  return served_count;
}

CellQueueTable::CellQueueTable(const PagingQueueConfig& config)
    : config_(config) {}

std::size_t CellQueueTable::probe(geometry::Cell cell) const {
  // Homed by the hash's high half: the daemon picks a cell's queue shard
  // from its low bits, so those are nearly constant within one table.
  const std::size_t mask = buckets_.size() - 1;
  std::size_t bucket = static_cast<std::size_t>(
      static_cast<std::uint64_t>(geometry::HexCellHash{}(cell)) >> 32);
  for (;; ++bucket) {
    const Bucket& entry = buckets_[bucket & mask];
    if (entry.index == kNone || entry.cell == cell) return bucket & mask;
  }
}

std::uint32_t CellQueueTable::find(geometry::Cell cell) const {
  if (cells_.empty()) return kNone;
  return buckets_[probe(cell)].index;
}

std::uint32_t CellQueueTable::intern(geometry::Cell cell) {
  if ((cells_.size() + 1) * 2 > buckets_.size()) {
    rehash(std::max<std::size_t>(16, buckets_.size() * 2));
  }
  Bucket& entry = buckets_[probe(cell)];
  if (entry.index == kNone) {
    PCN_EXPECT(cells_.size() < kNone, "CellQueueTable: too many cells");
    // The queue first: its constructor validates the config, and a throw
    // must leave the table as it was.
    queues_.emplace_back(config_);
    cells_.push_back(cell);
    entry.cell = cell;
    entry.index = static_cast<std::uint32_t>(cells_.size() - 1);
  }
  return entry.index;
}

void CellQueueTable::rehash(std::size_t buckets) {
  buckets_.assign(buckets, Bucket{});
  for (std::size_t index = 0; index < cells_.size(); ++index) {
    Bucket& entry = buckets_[probe(cells_[index])];
    entry.cell = cells_[index];
    entry.index = static_cast<std::uint32_t>(index);
  }
}

EnqueueResult CellQueueTable::add(std::uint32_t index, const PendingPage& page,
                                  PendingPage* evicted) {
  BoundedPagingQueue& queue = queues_[index];
  const bool was_empty = queue.empty();
  const EnqueueResult result = queue.add(page, evicted);
  if (was_empty && !queue.empty()) active_.push_back(index);
  return result;
}

void CellQueueTable::prune_active() {
  std::erase_if(active_, [this](std::uint32_t index) {
    return queues_[index].empty();
  });
}

}  // namespace pcn::daemon
