#include "pcn/daemon/load_gen.hpp"

#include "pcn/common/error.hpp"
#include "pcn/sim/simd_engine.hpp"

namespace pcn::daemon {

namespace {

std::int64_t mod_floor(std::int64_t value, std::int64_t modulus) {
  const std::int64_t m = value % modulus;
  return m < 0 ? m + modulus : m;
}

}  // namespace

ClosedLoopWorkload::ClosedLoopWorkload(const ClosedLoopConfig& config)
    : config_(config), outstanding_(config.terminals, 0) {
  PCN_EXPECT(config_.terminals >= 1,
             "ClosedLoopWorkload: terminals must be >= 1");
  PCN_EXPECT(config_.terminals <= sim::simd_detail::kWalkMaxLanes,
             "ClosedLoopWorkload: terminals must be <= 2^30");
  PCN_EXPECT(config_.region >= 1, "ClosedLoopWorkload: region must be >= 1");
  PCN_EXPECT(config_.move_prob >= 0.0 && config_.move_prob <= 1.0,
             "ClosedLoopWorkload: move_prob must be in [0, 1]");
  PCN_EXPECT(config_.call_prob >= 0.0 && config_.call_prob <= 1.0,
             "ClosedLoopWorkload: call_prob must be in [0, 1]");
  PCN_EXPECT(config_.threshold >= 1,
             "ClosedLoopWorkload: threshold must be >= 1");
  walk_.key = sim::SlotKey::from_seed(config_.seed);
  walk_.t_move = sim::slot_threshold(config_.move_prob);
  walk_.t_call = sim::slot_threshold(config_.call_prob);
  walk_.update_at = config_.threshold;
  walk_.two_d = config_.dimension == Dimension::kTwoD;
  // p = 1 (a 2^32 threshold) does not fit a 32-bit lane: portable path.
  constexpr std::uint64_t kLaneLimit = std::uint64_t{1} << 32;
  const sim::SimdSupport support = sim::simd_support();
  walk_.avx2 = support.available && support.isa == sim::SimdIsa::kAvx2 &&
               walk_.t_move < kLaneLimit && walk_.t_call < kLaneLimit;
}

void ClosedLoopWorkload::generate(int shard, int shard_count,
                                  std::int64_t slot, RequestSink& sink) {
  std::call_once(layout_once_, [&] {
    shards_.resize(static_cast<std::size_t>(shard_count));
  });
  PCN_ASSERT(static_cast<std::size_t>(shard_count) == shards_.size() &&
             shard >= 0 && shard < shard_count);
  Shard& state = shards_[static_cast<std::size_t>(shard)];
  const auto first = static_cast<std::uint64_t>(shard);
  const auto stride = static_cast<std::uint64_t>(shard_count);
  if (!state.registered) {
    register_shard(state, first, stride, slot, sink);
    return;
  }
  const sim::simd_detail::WalkLanes lanes{state.rel_q.data(),
                                          state.rel_r.data(), first, stride,
                                          state.rel_q.size()};
  const std::size_t count =
      sim::simd_detail::walk_slot(walk_, lanes, slot, state.events.data());
  std::int64_t updates = 0;
  std::int64_t pages = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t event = state.events[k];
    const std::size_t i = event >> 2;
    const std::uint64_t t = first + i * stride;
    if ((event & sim::simd_detail::kWalkUpdate) != 0) {
      send_update(state, i, t, sink);
      ++updates;
    }
    if ((event & sim::simd_detail::kWalkCalled) != 0 && outstanding_[t] == 0) {
      send_page(state, i, t, sink);
      ++pages;
    }
  }
  updates_sent_.fetch_add(updates, std::memory_order_relaxed);
  pages_submitted_.fetch_add(pages, std::memory_order_relaxed);
}

void ClosedLoopWorkload::register_shard(Shard& shard, std::uint64_t first,
                                        std::uint64_t stride,
                                        std::int64_t slot,
                                        RequestSink& sink) {
  const std::uint64_t n = config_.terminals;
  const std::size_t size =
      first < n ? static_cast<std::size_t>((n - first + stride - 1) / stride)
                : 0;
  shard.rel_q.assign(size, 0);
  shard.rel_r.assign(size, 0);
  shard.reported.assign(size, {});
  shard.events.resize(size);
  shard.registered = true;
  // Every terminal reports its place in a deterministic scatter across
  // the torus; moves start next slot, calls already this one.
  const auto region = static_cast<std::uint64_t>(config_.region);
  std::int64_t pages = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint64_t t = first + i * stride;
    shard.reported[i].q = static_cast<std::int32_t>(t % region);
    shard.reported[i].r =
        walk_.two_d ? static_cast<std::int32_t>((t / region) % region) : 0;
    send_update(shard, i, t, sink);
    if (sim::draw_slot(walk_.key, t, slot, /*chain=*/false, walk_.t_call,
                       walk_.t_move)
            .called) {
      send_page(shard, i, t, sink);
      ++pages;
    }
  }
  updates_sent_.fetch_add(static_cast<std::int64_t>(size),
                          std::memory_order_relaxed);
  pages_submitted_.fetch_add(pages, std::memory_order_relaxed);
}

void ClosedLoopWorkload::send_update(Shard& shard, std::size_t i,
                                     std::uint64_t t, RequestSink& sink) {
  const auto region = static_cast<std::int64_t>(config_.region);
  Shard::Reported& reported = shard.reported[i];
  const std::int64_t q =
      mod_floor(std::int64_t{reported.q} + shard.rel_q[i], region);
  const std::int64_t r =
      walk_.two_d
          ? mod_floor(std::int64_t{reported.r} + shard.rel_r[i], region)
          : 0;
  proto::LocationUpdate update;
  update.terminal_id = t;
  update.sequence = ++reported.sequence;
  update.cell = {q, r};
  update.containment_radius = static_cast<std::uint32_t>(config_.threshold);
  sink.update(update);
  reported.q = static_cast<std::int32_t>(q);
  reported.r = static_cast<std::int32_t>(r);
  shard.rel_q[i] = 0;
  shard.rel_r[i] = 0;
}

void ClosedLoopWorkload::send_page(Shard& shard, std::size_t i,
                                   std::uint64_t t, RequestSink& sink) {
  outstanding_[t] = 1;
  const std::uint64_t page_id =
      ++shard.reported[i].page_ordinal * config_.terminals + t + 1;
  sink.page(page_id, t);
}

void ClosedLoopWorkload::on_outcome(std::uint64_t terminal_id,
                                    proto::PageOutcomeKind kind,
                                    std::int64_t /*slot*/) {
  PCN_ASSERT(terminal_id < config_.terminals);
  PCN_ASSERT(outstanding_[terminal_id] != 0);
  outstanding_[terminal_id] = 0;
  switch (kind) {
    case proto::PageOutcomeKind::kServed:
      served_.fetch_add(1, std::memory_order_relaxed);
      break;
    case proto::PageOutcomeKind::kDropped:
      dropped_.fetch_add(1, std::memory_order_relaxed);
      break;
    case proto::PageOutcomeKind::kExpired:
      expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case proto::PageOutcomeKind::kRejected:
      // Only socket-fed loops see this (a full request ring answers the
      // submit immediately); the terminal is free to page again.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

std::int64_t ClosedLoopWorkload::outstanding_count() const {
  std::int64_t count = 0;
  for (const std::uint8_t flag : outstanding_) count += flag != 0 ? 1 : 0;
  return count;
}

}  // namespace pcn::daemon
