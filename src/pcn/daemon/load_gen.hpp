// Closed-loop daemon workload: N terminals doing the paper's random walk
// and movement-based location updating, with callers paging them through
// pcnd's bounded channel.
//
// Closed loop means a terminal has at most one page in flight: a caller
// who paged waits for the verdict (served / dropped / expired) before the
// terminal becomes pageable again.  That is both the realistic client
// behavior and the property the daemon's flight-event seq scheme and
// outcome callbacks rely on.
//
// Determinism.  Every per-(terminal, slot) decision — move? which
// direction? call arrival? — is drawn through the shared slot-draw
// contract (sim/slot_draw.hpp, independent semantics): key
// SlotKey::from_seed(seed), stream = terminal id, counter = slot; move is
// word 0 < slot_threshold(move_prob), call word 1 <
// slot_threshold(call_prob), and the direction DirectionDraw{word 2}.
// The generated request sequence is therefore a pure function of
// (seed, config), identical at any worker-thread count and on every
// instruction set.  `generate` touches only terminals t with
// t % shard_count == shard, in increasing t, as the SlotWorkload
// contract requires.
//
// Layout.  Walk state lives in dense per-shard arrays indexed
// t / shard_count: the int32 offset from the last reported cell, and
// beside it that cell (stored already wrapped) with the terminal's update
// sequence and page ordinal.  Each slot runs the shard through the
// SIMD kernels' walk_slot (sim/simd_kernel.hpp; AVX2 when simd_support()
// selects it, else the portable kernel), so a terminal that neither
// moves nor is called costs its draw and nothing else; the rare update
// and page lanes come back as events for the scalar code that feeds the
// RequestSink.  A shard's first slot registers all of its terminals.
//
// Offered load.  Per slot each idle terminal pages with probability
// `call_prob`; total offered paging load is roughly
// terminals * call_prob pages/slot spread over ~region^2 cells (region^2
// queues in 2-D, region in 1-D), to be set against the per-cell
// PagingCapacityModel rate when positioning an experiment relative to
// the capacity knee.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "pcn/daemon/daemon.hpp"
#include "pcn/sim/simd_kernel.hpp"

namespace pcn::daemon {

struct ClosedLoopConfig {
  std::uint64_t seed = 1;
  std::uint64_t terminals = 1024;
  /// Torus width: reported cells are wrapped to q, r in [0, region), so
  /// the daemon sees at most region^2 distinct cells (region in 1-D).
  int region = 16;
  /// Per-slot movement probability q (paper mobility model).
  double move_prob = 0.2;
  /// Per-slot page-arrival probability c for an idle terminal.
  double call_prob = 0.05;
  /// Movement-based update threshold d: a terminal updates when its
  /// distance from the last reported position reaches d.
  int threshold = 3;
  Dimension dimension = Dimension::kTwoD;
};

class ClosedLoopWorkload final : public SlotWorkload {
 public:
  explicit ClosedLoopWorkload(const ClosedLoopConfig& config);

  const ClosedLoopConfig& config() const { return config_; }

  void generate(int shard, int shard_count, std::int64_t slot,
                RequestSink& sink) override;
  void on_outcome(std::uint64_t terminal_id, proto::PageOutcomeKind kind,
                  std::int64_t slot) override;

  // --- workload-side tallies (exact; safe to read between run_slots) ---
  std::int64_t pages_submitted() const {
    return pages_submitted_.load(std::memory_order_relaxed);
  }
  std::int64_t updates_sent() const {
    return updates_sent_.load(std::memory_order_relaxed);
  }
  std::int64_t outcomes_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  std::int64_t outcomes_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::int64_t outcomes_expired() const {
    return expired_.load(std::memory_order_relaxed);
  }
  std::int64_t outcomes_rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Terminals with a page still in flight.
  std::int64_t outstanding_count() const;

 private:
  /// One terminal shard's walk state, dense over its terminals
  /// t = shard + i * shard_count.
  struct Shard {
    /// What only update and page events touch, kept together so an
    /// event costs one cache line here.
    struct Reported {
      std::int32_t q = 0;  ///< last reported cell, wrapped
      std::int32_t r = 0;
      std::uint64_t sequence = 0;      ///< last update's sequence
      std::uint64_t page_ordinal = 0;  ///< pages submitted so far
    };
    std::vector<std::int32_t> rel_q;  ///< offset from the last report
    std::vector<std::int32_t> rel_r;
    std::vector<Reported> reported;
    std::vector<std::uint32_t> events;  ///< walk_slot output
    bool registered = false;  ///< the shard's first slot has run
  };

  void register_shard(Shard& shard, std::uint64_t first,
                      std::uint64_t stride, std::int64_t slot,
                      RequestSink& sink);
  void send_update(Shard& shard, std::size_t i, std::uint64_t t,
                   RequestSink& sink);
  void send_page(Shard& shard, std::size_t i, std::uint64_t t,
                 RequestSink& sink);

  ClosedLoopConfig config_;
  sim::simd_detail::WalkParams walk_;
  /// Sized on the first generate call, when the shard count is known.
  std::once_flag layout_once_;
  std::vector<Shard> shards_;
  /// outstanding_[t] != 0 while terminal t has a page in flight.  Plain
  /// bytes, not atomics: for one terminal the daemon's fork-join phases
  /// order every access (generate in APPLY, the verdict in APPLY or a
  /// later DRAIN), and closed loop means at most one verdict per slot.
  std::vector<std::uint8_t> outstanding_;

  std::atomic<std::int64_t> pages_submitted_{0};
  std::atomic<std::int64_t> updates_sent_{0};
  std::atomic<std::int64_t> served_{0};
  std::atomic<std::int64_t> dropped_{0};
  std::atomic<std::int64_t> expired_{0};
  std::atomic<std::int64_t> rejected_{0};
};

}  // namespace pcn::daemon
