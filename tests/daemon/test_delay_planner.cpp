// DelayFeedbackPlanner unit tests: the paper-derived rate factor, the
// fractional budget accumulator, the Q16 EWMAs, and the widen/narrow
// feedback rule — all pure serial arithmetic, so the expectations here
// are exact.
#include "pcn/daemon/delay_planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pcn/capacity/paging_capacity.hpp"
#include "pcn/common/error.hpp"

namespace pcn::daemon {
namespace {

DelayPlanConfig feedback_config() {
  DelayPlanConfig config;
  config.mode = DelayPlanConfig::Mode::kFeedback;
  config.m_min = 1;
  config.m_max = 8;
  config.m_start = 2;
  config.adjust_every_slots = 4;
  config.ewma_shift = 3;
  return config;
}

TEST(DelayPlanner, RateFactorIsOneAtMMaxAndMonotoneInM) {
  DelayPlanConfig config = feedback_config();
  const capacity::PagingCapacityModel capacity(1, 1.0);
  double previous = 0.0;
  for (int m = config.m_min; m <= config.m_max; ++m) {
    config.m_start = m;
    DelayFeedbackPlanner planner(config, capacity, /*sla_delay_slots=*/8);
    EXPECT_EQ(planner.effective_m(), m);
    const double factor = planner.rate_factor();
    // factor(m) = m(M+1)/(M(m+1)): increasing in m, exactly 1 at m_max.
    EXPECT_GT(factor, previous);
    previous = factor;
  }
  EXPECT_DOUBLE_EQ(previous, 1.0);
}

TEST(DelayPlanner, BudgetAccumulatesFractionsLikeTheCapacityModel) {
  DelayPlanConfig config = feedback_config();
  config.mode = DelayPlanConfig::Mode::kStatic;
  config.m_start = config.m_max;  // factor = 1.0: must match base budget
  capacity::PagingCapacityModel capacity(1, 1.6);  // 0.625 pages/slot
  DelayFeedbackPlanner planner(config, capacity, 8);
  capacity::PagingCapacityModel reference(1, 1.6);
  std::int64_t planned = 0;
  std::int64_t base = 0;
  for (std::int64_t slot = 0; slot < 100; ++slot) {
    planned += planner.budget_for_slot(slot);
    base += reference.budget_for_slot(slot);
  }
  EXPECT_EQ(planned, base);

  // A narrower m yields a strictly smaller cumulative budget, and the
  // carry never lets a single slot round past its rate.
  config.m_start = 2;  // factor = 9/24 * 2 = 0.75
  DelayFeedbackPlanner narrow(config, capacity, 8);
  std::int64_t narrowed = 0;
  for (std::int64_t slot = 0; slot < 100; ++slot) {
    const int budget = narrow.budget_for_slot(slot);
    EXPECT_LE(budget, 1);
    narrowed += budget;
  }
  EXPECT_LT(narrowed, planned);
  // 100 slots * 0.625 * 0.75 = 46.875 -> 46 whole pages issued.
  EXPECT_EQ(narrowed, 46);
}

TEST(DelayPlanner, StaticModeNeverMoves) {
  DelayPlanConfig config = feedback_config();
  config.mode = DelayPlanConfig::Mode::kStatic;
  const capacity::PagingCapacityModel capacity(1, 1.0);
  DelayFeedbackPlanner planner(config, capacity, 8);
  for (std::int64_t slot = 0; slot < 64; ++slot) {
    planner.observe_cell({0, 0}, /*served=*/4, /*delay_sum_slots=*/28);
    planner.end_slot(slot);
  }
  EXPECT_EQ(planner.effective_m(), config.m_start);
  EXPECT_EQ(planner.widen_count(), 0);
  EXPECT_EQ(planner.narrow_count(), 0);
  // The EWMAs still track (introspection works in static mode too).
  EXPECT_GT(planner.global_ewma_q16(), 0);
}

TEST(DelayPlanner, WidensUnderSustainedHighDelay) {
  const DelayPlanConfig config = feedback_config();
  const capacity::PagingCapacityModel capacity(1, 1.0);
  DelayFeedbackPlanner planner(config, capacity, /*sla_delay_slots=*/8);
  // Mean served delay 7 slots >> sla/4 = 2: every adjust boundary must
  // widen until m_max.
  for (std::int64_t slot = 0; slot < 64; ++slot) {
    planner.observe_cell({0, 0}, /*served=*/2, /*delay_sum_slots=*/14);
    planner.end_slot(slot);
  }
  EXPECT_EQ(planner.effective_m(), config.m_max);
  EXPECT_EQ(planner.widen_count(), config.m_max - config.m_start);
  EXPECT_EQ(planner.narrow_count(), 0);
  EXPECT_DOUBLE_EQ(planner.rate_factor(), 1.0);
}

TEST(DelayPlanner, NarrowsBackWhenDelayHasHeadroom) {
  const DelayPlanConfig config = feedback_config();
  const capacity::PagingCapacityModel capacity(1, 1.0);
  DelayFeedbackPlanner planner(config, capacity, /*sla_delay_slots=*/8);
  // Zero measured delay < sla/16 = 0.5: narrow from m_start to m_min.
  for (std::int64_t slot = 0; slot < 64; ++slot) {
    planner.observe_cell({1, -1}, /*served=*/3, /*delay_sum_slots=*/0);
    planner.end_slot(slot);
  }
  EXPECT_EQ(planner.effective_m(), config.m_min);
  EXPECT_EQ(planner.narrow_count(), config.m_start - config.m_min);
  EXPECT_EQ(planner.widen_count(), 0);
}

TEST(DelayPlanner, IdleSlotsLeaveTheEwmaAlone) {
  const DelayPlanConfig config = feedback_config();
  const capacity::PagingCapacityModel capacity(1, 1.0);
  DelayFeedbackPlanner planner(config, capacity, 8);
  planner.observe_cell({0, 0}, 1, 6);
  planner.end_slot(0);
  const std::int64_t after_first = planner.global_ewma_q16();
  EXPECT_GT(after_first, 0);
  // Slots that serve nothing must not decay the estimate toward zero —
  // an idle channel says nothing about queueing delay.
  for (std::int64_t slot = 1; slot < 8; ++slot) planner.end_slot(slot);
  EXPECT_EQ(planner.global_ewma_q16(), after_first);
}

TEST(DelayPlanner, TracksPerCellEwmasIndependently) {
  const DelayPlanConfig config = feedback_config();
  const capacity::PagingCapacityModel capacity(1, 1.0);
  DelayFeedbackPlanner planner(config, capacity, 8);
  const geometry::Cell hot{2, 3};
  const geometry::Cell cold{-1, 0};
  for (std::int64_t slot = 0; slot < 16; ++slot) {
    planner.observe_cell(hot, 2, 12);  // mean 6 slots
    planner.observe_cell(cold, 2, 0);  // mean 0 slots
    planner.end_slot(slot);
  }
  EXPECT_EQ(planner.cells_tracked(), 2u);
  EXPECT_GT(planner.cell_ewma_q16(hot), planner.cell_ewma_q16(cold));
  EXPECT_EQ(planner.cell_ewma_q16({9, 9}), 0);
}

TEST(DelayPlanner, FoldIsIndependentOfObserveOrderWithinASlot) {
  // pcnd's DRAIN hands the planner one sample per served cell in
  // active-list order, which is reproducible but not sorted.  Within a
  // slot each cell has its own EWMA and the global fold is a sum, so any
  // permutation of a slot's samples must leave identical state.
  struct Sample {
    geometry::Cell cell;
    std::int64_t served;
    std::int64_t delay_sum;
  };
  std::vector<Sample> samples;
  for (std::int64_t i = 0; i < 24; ++i) {
    samples.push_back({{i % 7, -(i / 7)}, 1 + i % 3, (i * 5) % 11});
  }
  std::vector<Sample> permuted = samples;
  std::reverse(permuted.begin(), permuted.end());
  std::rotate(permuted.begin(), permuted.begin() + 9, permuted.end());
  ASSERT_NE(permuted.front().cell, samples.front().cell);

  const DelayPlanConfig config = feedback_config();
  const capacity::PagingCapacityModel capacity(1, 1.0);
  DelayFeedbackPlanner forward(config, capacity, /*sla_delay_slots=*/8);
  DelayFeedbackPlanner shuffled(config, capacity, /*sla_delay_slots=*/8);
  for (std::int64_t slot = 0; slot < 32; ++slot) {
    for (const Sample& s : samples) {
      forward.observe_cell(s.cell, s.served, s.delay_sum + slot % 4);
    }
    for (const Sample& s : permuted) {
      shuffled.observe_cell(s.cell, s.served, s.delay_sum + slot % 4);
    }
    forward.end_slot(slot);
    shuffled.end_slot(slot);
    ASSERT_EQ(forward.global_ewma_q16(), shuffled.global_ewma_q16());
    ASSERT_EQ(forward.effective_m(), shuffled.effective_m());
  }
  EXPECT_EQ(forward.cells_tracked(), shuffled.cells_tracked());
  for (const Sample& s : samples) {
    EXPECT_EQ(forward.cell_ewma_q16(s.cell), shuffled.cell_ewma_q16(s.cell));
  }
  // Sanity: the scenario moved the planner off its start.
  EXPECT_NE(forward.effective_m(), config.m_start);
}

TEST(DelayPlanner, RejectsBadConfig) {
  const capacity::PagingCapacityModel capacity(1, 1.0);
  DelayPlanConfig config = feedback_config();
  config.mode = DelayPlanConfig::Mode::kOff;
  EXPECT_THROW(DelayFeedbackPlanner(config, capacity, 8), InvalidArgument);
  config = feedback_config();
  config.m_min = 0;
  EXPECT_THROW(DelayFeedbackPlanner(config, capacity, 8), InvalidArgument);
  config = feedback_config();
  config.m_min = 4;
  config.m_max = 2;
  EXPECT_THROW(DelayFeedbackPlanner(config, capacity, 8), InvalidArgument);
  config = feedback_config();
  config.adjust_every_slots = 0;
  EXPECT_THROW(DelayFeedbackPlanner(config, capacity, 8), InvalidArgument);
  config = feedback_config();
  // Feedback needs a real SLA to steer against.
  EXPECT_THROW(DelayFeedbackPlanner(config, capacity, 0), InvalidArgument);
}

}  // namespace
}  // namespace pcn::daemon
