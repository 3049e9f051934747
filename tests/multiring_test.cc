// Multi-Ring Paxos tests: deterministic merge (Algorithm 1 Task 4),
// uniform partial order across learners with arbitrary subscription
// sets, skip-instance behaviour under rate imbalance, buffer-overflow
// halting, and the coordinator-outage catch-up skip (Figure 12's
// mechanism).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"

namespace mrp::multiring {
namespace {

using ringpaxos::ProposerConfig;

using DeliveryKey = std::tuple<GroupId, NodeId, std::uint64_t>;

struct DeliveryLog {
  std::vector<DeliveryKey> entries;
  MergeLearner::DeliverFn Fn() {
    return [this](GroupId g, const paxos::ClientMsg& m) {
      entries.emplace_back(g, m.proposer, m.seq);
    };
  }
};

MergeLearner* AddLoggingMergeLearner(SimDeployment& d, const std::vector<int>& rings,
                                     DeliveryLog& log, std::uint32_t m = 1,
                                     bool acks = false,
                                     std::size_t max_buffer = 0) {
  MergeLearner::Options opts;
  opts.m = m;
  opts.max_buffer_msgs = max_buffer;
  opts.send_delivery_acks = acks;
  opts.on_deliver = log.Fn();
  return d.AddMergeLearner(rings, std::move(opts));
}

ProposerConfig ClosedLoop(std::size_t window, std::uint32_t payload = 8 * 1024) {
  ProposerConfig cfg;
  cfg.max_outstanding = window;
  cfg.payload_size = payload;
  return cfg;
}

ProposerConfig OpenLoop(double rate, std::uint32_t payload = 8 * 1024) {
  ProposerConfig cfg;
  cfg.schedule = {{Seconds(0), rate}};
  cfg.payload_size = payload;
  return cfg;
}

// Checks the atomic multicast uniform partial order: messages delivered
// by both learners appear in the same relative order.
void ExpectConsistentPartialOrder(const DeliveryLog& a, const DeliveryLog& b) {
  std::map<DeliveryKey, std::size_t> pos_b;
  for (std::size_t i = 0; i < b.entries.size(); ++i) {
    // First occurrence wins (duplicates possible after fail-over).
    pos_b.emplace(b.entries[i], i);
  }
  std::size_t last = 0;
  bool first = true;
  for (const auto& key : a.entries) {
    auto it = pos_b.find(key);
    if (it == pos_b.end()) continue;
    if (!first) {
      ASSERT_GE(it->second, last) << "partial order violated";
    }
    first = false;
    last = it->second;
  }
}

TEST(MultiRing, TwoRingsMergeDeliversBothGroups) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  SimDeployment d(opts);
  DeliveryLog log;
  auto* learner = AddLoggingMergeLearner(d, {0, 1}, log, 1, /*acks=*/true);
  d.AddProposer(0, ClosedLoop(4));
  d.AddProposer(1, ClosedLoop(4));
  d.Start();
  d.RunFor(Seconds(1));

  ASSERT_EQ(learner->group_count(), 2u);
  EXPECT_GT(learner->stats(0).delivered.total_count(), 100u);
  EXPECT_GT(learner->stats(1).delivered.total_count(), 100u);
  EXPECT_FALSE(learner->halted());
  // Per-proposer FIFO within each group.
  std::map<std::pair<GroupId, NodeId>, std::uint64_t> last_seq;
  for (const auto& [g, p, seq] : log.entries) {
    auto& prev = last_seq[{g, p}];
    EXPECT_GT(seq, prev);
    prev = seq;
  }
}

TEST(MultiRing, UniformPartialOrderAcrossSubscriptionSets) {
  DeploymentOptions opts;
  opts.n_rings = 3;
  SimDeployment d(opts);
  DeliveryLog l01, l01b, l12, l0;
  AddLoggingMergeLearner(d, {0, 1}, l01, 1, /*acks=*/true);
  AddLoggingMergeLearner(d, {0, 1}, l01b);
  AddLoggingMergeLearner(d, {1, 2}, l12, 1, /*acks=*/true);
  AddLoggingMergeLearner(d, {0}, l0);
  for (int r = 0; r < 3; ++r) d.AddProposer(r, ClosedLoop(4, 2000));
  d.Start();
  d.RunFor(Seconds(1));

  ASSERT_GT(l01.entries.size(), 200u);
  ASSERT_GT(l12.entries.size(), 200u);
  // Learners with identical subscriptions: identical sequences.
  EXPECT_EQ(l01.entries, l01b.entries);
  // Overlapping subscriptions: consistent partial order on the overlap.
  ExpectConsistentPartialOrder(l01, l12);
  ExpectConsistentPartialOrder(l01, l0);
  ExpectConsistentPartialOrder(l12, l01);
}

TEST(MultiRing, DeterministicAcrossRuns) {
  auto run = [] {
    DeploymentOptions opts;
    opts.n_rings = 2;
    opts.net.seed = 77;
    SimDeployment d(opts);
    DeliveryLog log;
    AddLoggingMergeLearner(d, {0, 1}, log, 1, true);
    d.AddProposer(0, ClosedLoop(4));
    d.AddProposer(1, ClosedLoop(2));
    d.Start();
    d.RunFor(Millis(500));
    return log.entries;
  };
  EXPECT_EQ(run(), run());
}

TEST(MultiRing, SkipsUnblockLearnerWhenOneRingIsIdle) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.lambda_per_sec = 9000;
  SimDeployment d(opts);
  DeliveryLog log;
  auto* learner = AddLoggingMergeLearner(d, {0, 1}, log, 1, true);
  d.AddProposer(0, ClosedLoop(4));  // ring 1 idle
  d.Start();
  d.RunFor(Seconds(1));

  EXPECT_GT(learner->stats(0).delivered.total_count(), 100u);
  EXPECT_GT(learner->stats(1).skipped_logical, 1000u);
  // Low latency despite the idle ring: skips keep the merge moving.
  EXPECT_LT(learner->stats(0).latency.TrimmedMean(0.05), 20e6);
}

TEST(MultiRing, WithoutSkipsIdleRingBlocksMerge) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.lambda_per_sec = 0;  // no skip mechanism
  SimDeployment d(opts);
  DeliveryLog log;
  auto* learner = AddLoggingMergeLearner(d, {0, 1}, log, 1, true);
  d.AddProposer(0, ClosedLoop(4));
  d.Start();
  d.RunFor(Seconds(1));

  // The merge can never get past group 1's first (never-decided)
  // instance: at most M messages from group 0 are delivered.
  EXPECT_LE(learner->stats(0).delivered.total_count(), 1u);
  EXPECT_GT(learner->buffered_msgs(), 0u);
}

TEST(MultiRing, BufferOverflowHaltsLearner) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);
  DeliveryLog log;
  auto* learner =
      AddLoggingMergeLearner(d, {0, 1}, log, 1, false, /*max_buffer=*/100);
  d.AddProposer(0, OpenLoop(2000, 1024));
  d.Start();
  d.RunFor(Seconds(2));

  EXPECT_TRUE(learner->halted());
}

// A halted learner drops ring traffic and stops ticking its sources, so
// its buffers keep the size they had at the halt.
TEST(MultiRing, HaltedLearnerStopsBuffering) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);
  DeliveryLog log;
  auto* learner =
      AddLoggingMergeLearner(d, {0, 1}, log, 1, false, /*max_buffer=*/100);
  d.AddProposer(0, OpenLoop(2000, 1024));
  d.Start();
  for (int ms = 0; ms < 2000 && !learner->halted(); ++ms) d.RunFor(Millis(1));
  ASSERT_TRUE(learner->halted());
  const std::size_t at_halt = learner->buffered_msgs();
  EXPECT_GT(at_halt, 100u);
  d.RunFor(Seconds(1));
  EXPECT_EQ(learner->buffered_msgs(), at_halt);
}

TEST(MultiRing, MGreaterThanOnePreservesPartialOrder) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  SimDeployment d(opts);
  DeliveryLog a, b;
  AddLoggingMergeLearner(d, {0, 1}, a, /*m=*/10, true);
  AddLoggingMergeLearner(d, {0, 1}, b, /*m=*/10);
  d.AddProposer(0, ClosedLoop(4, 4000));
  d.AddProposer(1, ClosedLoop(4, 4000));
  d.Start();
  d.RunFor(Seconds(1));

  ASSERT_GT(a.entries.size(), 200u);
  EXPECT_EQ(a.entries, b.entries);
}

TEST(MultiRing, CoordinatorPauseStallsMergeAndCatchUpSkipDrainsIt) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.lambda_per_sec = 4000;
  // Disable fail-over: Figure 12 forcibly restarts the same coordinator.
  opts.suspect_after = Seconds(60);
  SimDeployment d(opts);
  DeliveryLog log;
  auto* learner = AddLoggingMergeLearner(d, {0, 1}, log, 1, true);
  auto* p0 = d.AddProposer(0, [] {
    auto c = OpenLoop(1000, 8 * 1024);
    c.max_outstanding = 64;
    return c;
  }());
  d.AddProposer(1, [] {
    auto c = OpenLoop(1000, 8 * 1024);
    c.max_outstanding = 64;
    return c;
  }());
  d.Start();
  d.RunFor(Seconds(2));
  const auto delivered_before = learner->total_delivered();
  ASSERT_GT(delivered_before, 1000u);

  // Pause ring 0's coordinator (shorter than the suspicion timeout used
  // here, so no fail-over: the paper's Figure 12 forced-restart setup).
  d.coordinator_node(0)->SetDown(true);
  d.RunFor(Millis(80));
  const auto during = learner->total_delivered();
  d.RunFor(Millis(20));
  // Merge stalls: nothing (or almost nothing) delivered while down.
  EXPECT_LT(learner->total_delivered() - during, 100u);

  d.coordinator_node(0)->SetDown(false);
  d.RunFor(Seconds(2));
  // Catch-up skip drained the buffer and delivery resumed for BOTH
  // groups.
  EXPECT_GT(learner->total_delivered(), delivered_before + 1000);
  EXPECT_FALSE(learner->halted());
  EXPECT_GT(p0->acked_seq(), 0u);
}

TEST(MultiRing, StalledRingSendsNoOtherRingIntoRecovery) {
  // While the merge waits on a paused ring 1, ring 0's head is decided
  // and ready: that is no gap, so ring 0's learner must not ask the
  // acceptors for instances it already holds.
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.suspect_after = Seconds(60);  // no fail-over while ring 1 is paused
  SimDeployment d(opts);
  sim::SimNode* learner = nullptr;
  d.AddLearnerNode({0, 1}, [&](sim::SimNode& node,
                               std::vector<ringpaxos::LearnerOptions> groups) {
    learner = &node;
    MergeLearner::Options mo;
    mo.groups = std::move(groups);
    return std::make_unique<MergeLearner>(std::move(mo));
  });
  d.AddProposer(0, OpenLoop(1000, 1024));
  d.AddProposer(1, OpenLoop(1000, 1024));
  d.Start();
  d.RunFor(Seconds(1));
  for (auto* n : d.ring_universe(1)) n->SetDown(true);
  d.RunFor(Seconds(1));
  EXPECT_EQ(learner->metrics().CounterValue("learner.r0.recovery_reqs"), 0u);
}

TEST(MultiRing, LossyNetworkStillMergesConsistently) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.net.loss_probability = 0.02;
  opts.net.seed = 13;
  SimDeployment d(opts);
  DeliveryLog a, b;
  AddLoggingMergeLearner(d, {0, 1}, a, 1, true);
  AddLoggingMergeLearner(d, {0, 1}, b);
  d.AddProposer(0, ClosedLoop(4, 4000));
  d.AddProposer(1, ClosedLoop(4, 4000));
  d.Start();
  d.RunFor(Seconds(3));

  ASSERT_GT(a.entries.size(), 200u);
  const auto n = std::min(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.entries[i], b.entries[i]) << "diverged at " << i;
  }
}

}  // namespace
}  // namespace mrp::multiring

namespace mrp::multiring {
namespace {

TEST(MultiRing, SkipResyncRepaysBurstsAboveLambda) {
  // A ring that bursts above lambda desynchronises its merge peers for
  // good under Algorithm 1 (prev_k <- k); with skip_resync the schedule
  // is absolute and the standing buffer drains once the burst passes.
  for (bool resync : {false, true}) {
    DeploymentOptions opts;
    opts.n_rings = 2;
    opts.lambda_per_sec = 3000;
    opts.skip_resync = resync;
    SimDeployment d(opts);
    auto* learner = d.AddMergeLearner({0, 1});
    // Ring 0: steady 1000 msg/s. Ring 1: a 2 s burst at 5000 msg/s
    // (above lambda), then back to 1000 msg/s.
    // 8 kB messages: one consensus instance per message, so the burst
    // rate is also the instance rate (batching would otherwise keep the
    // instance rate below lambda).
    ringpaxos::ProposerConfig p0;
    p0.schedule = {{Seconds(0), 1000.0}};
    p0.payload_size = 8 * 1024;
    d.AddProposer(0, p0);
    ringpaxos::ProposerConfig p1;
    p1.schedule = {{Seconds(0), 1000.0}, {Seconds(2), 5000.0}, {Seconds(4), 1000.0}};
    p1.payload_size = 8 * 1024;
    d.AddProposer(1, p1);
    d.Start();
    d.RunFor(Seconds(10));

    if (resync) {
      EXPECT_LT(learner->buffered_msgs(), 200u)
          << "resync should drain the burst backlog";
    } else {
      EXPECT_GT(learner->buffered_msgs(), 1000u)
          << "Algorithm 1 keeps the burst offset";
    }
    // Deliveries keep flowing either way.
    EXPECT_GT(learner->total_delivered(), 10000u);
  }
}

}  // namespace
}  // namespace mrp::multiring
