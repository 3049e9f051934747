// Chaos soak: the plan executor's deployment (tools/fuzz/plan_executor.h)
// under 1% message loss, 8 s of acceptor crash-revive churn and a
// learner pause, sweeping seeds. The oracles check agreement, merge
// order, integrity and that no acknowledged message was lost.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/fault_plan.h"
#include "common/rand.h"
#include "plan_executor.h"

namespace mrp {
namespace {

using check::FaultEvent;
using check::FaultPlan;

// Every 500 ms toggle a random acceptor of a random ring, keeping at most
// one of each ring's three universe members down; pause merge-b from 4 s
// to 5 s.
FaultPlan ChaosPlan(std::uint64_t seed) {
  constexpr TimePoint kEnd = Seconds(8);
  FaultPlan plan;
  plan.seed = seed;
  plan.shape.n_sites = 1;
  plan.budget.horizon = Seconds(8);
  std::vector<std::size_t> down(2, SIZE_MAX);  // per ring: its crash event
  Rng rng(seed * 7919 + 1);
  for (int step = 0; step < 16; ++step) {
    const TimePoint now = Millis(500 * (step + 1));
    const int ring = static_cast<int>(rng.below(2));
    const int victim = static_cast<int>(rng.below(3));
    std::size_t& crashed = down[static_cast<std::size_t>(ring)];
    if (crashed != SIZE_MAX && plan.events[crashed].member == victim) {
      plan.events[crashed].duration = now - plan.events[crashed].at;
      crashed = SIZE_MAX;
    } else if (crashed == SIZE_MAX) {
      crashed = plan.events.size();
      plan.events.push_back({.kind = FaultEvent::Kind::kCrash,
                             .at = now,
                             .duration = kEnd - now,
                             .ring = ring,
                             .member = victim});
    }
    if (step == 7) {
      plan.events.push_back({.kind = FaultEvent::Kind::kLearnerPause,
                             .at = now,
                             .duration = Seconds(1)});
    }
  }
  return plan;
}

class ChaosSoak : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSoak, SafetyHoldsUnderCrashLossAndChurn) {
  const FaultPlan plan = ChaosPlan(static_cast<std::uint64_t>(GetParam()));
  const fuzz::RunStats rs = fuzz::RunPlan(plan);
  EXPECT_FALSE(rs.violated) << rs.report;
  EXPECT_GT(rs.deliveries, 500u) << "no progress under churn";

  // The same plan with an injected agreement bug must trip an oracle.
  fuzz::RunOptions bad;
  bad.inject_corrupt = 200;
  EXPECT_TRUE(fuzz::RunPlan(plan, bad).violated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak, ::testing::Values(5, 23, 71, 137));

}  // namespace
}  // namespace mrp
