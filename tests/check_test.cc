// Unit tests for src/check: each oracle trips on a minimal synthetic
// violation and stays quiet on clean feeds; fault-plan generation is
// deterministic, budget-respecting, and JSON round-trippable — the
// properties tools/fuzz/mrp_fuzz.cc's replay and shrinking depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/fault_plan.h"
#include "check/oracles.h"
#include "common/metrics.h"
#include "paxos/value.h"
#include "smr/command.h"

namespace mrp::check {
namespace {

paxos::ClientMsg Msg(NodeId proposer, std::uint64_t seq, GroupId group = 1) {
  paxos::ClientMsg m;
  m.group = group;
  m.proposer = proposer;
  m.seq = seq;
  m.payload_size = 16;
  return m;
}

TEST(Oracles, CleanFeedPasses) {
  OracleSuite o;
  const int a = o.RegisterLearner("a", {1});
  const int b = o.RegisterLearner("b", {1});
  for (std::uint64_t s = 1; s <= 5; ++s) {
    o.OnPropose(Msg(7, s));
    const auto v = paxos::Value::Batch({Msg(7, s)});
    o.OnDecide(a, 0, s, v);
    o.OnDecide(b, 0, s, v);
    o.OnDeliver(a, 1, Msg(7, s));
    o.OnDeliver(b, 1, Msg(7, s));
  }
  o.Finish();
  EXPECT_TRUE(o.ok()) << o.Report();
  EXPECT_EQ(o.deliveries(), 10u);
  EXPECT_EQ(o.decides(), 10u);
}

TEST(Oracles, AgreementTripsOnConflictingDecision) {
  OracleSuite o;
  const int a = o.RegisterLearner("a", {1});
  const int b = o.RegisterLearner("b", {1});
  o.OnDecide(a, 0, 42, paxos::Value::Batch({Msg(7, 1)}));
  o.OnDecide(b, 0, 42, paxos::Value::Batch({Msg(7, 2)}));
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(o.first_oracle(), "agreement");
  // Re-deciding the SAME value is not a violation.
  OracleSuite o2;
  const int c = o2.RegisterLearner("c", {1});
  const int e = o2.RegisterLearner("e", {1});
  o2.OnDecide(c, 0, 42, paxos::Value::Skip(3));
  o2.OnDecide(e, 0, 42, paxos::Value::Skip(3));
  EXPECT_TRUE(o2.ok());
}

TEST(Oracles, SkipCarryingMessagesTrips) {
  OracleSuite o;
  const int a = o.RegisterLearner("a", {1});
  paxos::Value bad = paxos::Value::Skip(5);
  bad.msgs.push_back(Msg(7, 1));
  o.OnDecide(a, 0, 1, bad);
  EXPECT_TRUE(o.HasViolation("skip_delivery"));
}

TEST(Oracles, IntegrityTripsOnUnproposedDelivery) {
  OracleSuite o;
  const int a = o.RegisterLearner("a", {1});
  o.OnPropose(Msg(7, 1));
  o.OnDeliver(a, 1, Msg(7, 1));
  o.OnDeliver(a, 1, Msg(7, 999));  // never proposed
  EXPECT_TRUE(o.HasViolation("integrity"));
}

TEST(Oracles, MergeOrderTripsOnDivergentSharedOrder) {
  OracleSuite o;
  const int a = o.RegisterLearner("a", {1, 2});
  const int b = o.RegisterLearner("b", {1, 3});
  o.OnDeliver(a, 1, Msg(7, 1));
  o.OnDeliver(a, 1, Msg(7, 2));
  o.OnDeliver(b, 1, Msg(7, 2));
  o.OnDeliver(b, 1, Msg(7, 1));  // swapped relative order
  o.Finish();
  EXPECT_TRUE(o.HasViolation("merge_order"));
  // Gaps are fine (one learner lagging): a prefix is not a violation.
  OracleSuite o2;
  const int c = o2.RegisterLearner("c", {1});
  const int e = o2.RegisterLearner("e", {1});
  o2.OnDeliver(c, 1, Msg(7, 1));
  o2.OnDeliver(c, 1, Msg(7, 2));
  o2.OnDeliver(c, 1, Msg(7, 3));
  o2.OnDeliver(e, 1, Msg(7, 1));
  o2.OnDeliver(e, 1, Msg(7, 3));  // missing 2: lag, not disorder
  o2.Finish();
  EXPECT_TRUE(o2.ok()) << o2.Report();
}

TEST(Oracles, SmrPrefixTripsOnDivergentApplies) {
  OracleSuite o;
  const int a = o.RegisterReplica("ra", 0);
  const int b = o.RegisterReplica("rb", 0);
  smr::Command c1 = smr::Command::Insert(10, "x");
  c1.req_id = 1;
  smr::Command c2 = c1;
  c2.key = 20;
  o.OnSmrApply(a, c1);
  o.OnSmrApply(a, c2);
  o.OnSmrApply(b, c2);  // diverges at index 0
  o.Finish();
  EXPECT_TRUE(o.HasViolation("smr_prefix"));
}

TEST(Oracles, ViolationsBumpMetricsCounter) {
  MetricsRegistry reg;
  OracleSuite o(&reg);
  o.Flag("liveness", "synthetic");
  o.Flag("liveness", "synthetic 2");
  EXPECT_EQ(reg.counter("check.oracle.violations").value(), 2u);
  EXPECT_TRUE(o.HasViolation("liveness"));
  EXPECT_FALSE(o.HasViolation("agreement"));
}

TEST(Oracles, DigestIsFeedDeterministic) {
  auto run = [](std::uint64_t seq_base) {
    OracleSuite o;
    const int a = o.RegisterLearner("a", {1});
    for (std::uint64_t s = 1; s <= 10; ++s) {
      o.OnPropose(Msg(3, seq_base + s));
      o.OnDeliver(a, 1, Msg(3, seq_base + s));
    }
    return o.feed_digest();
  };
  EXPECT_EQ(run(0), run(0));
  EXPECT_NE(run(0), run(100));
}

TEST(FaultPlans, GenerationIsDeterministic) {
  DeploymentShape shape;
  FaultBudget budget;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    EXPECT_EQ(GeneratePlan(seed, shape, budget),
              GeneratePlan(seed, shape, budget));
  }
  EXPECT_NE(GeneratePlan(1, shape, budget), GeneratePlan(2, shape, budget));
}

// Replays a plan's crash/coord-kill intervals and returns the maximum
// number of one ring's universe members down at any instant.
int MaxConcurrentDown(const FaultPlan& plan) {
  int worst = 0;
  for (int ring = 0; ring < plan.shape.n_rings; ++ring) {
    std::vector<std::pair<std::int64_t, int>> deltas;
    for (const auto& ev : plan.events) {
      if (ev.ring != ring) continue;
      if (ev.kind != FaultEvent::Kind::kCrash &&
          ev.kind != FaultEvent::Kind::kCoordKill) {
        continue;
      }
      deltas.emplace_back(ev.at.count(), +1);
      deltas.emplace_back((ev.at + ev.duration).count(), -1);
    }
    std::sort(deltas.begin(), deltas.end());
    int down = 0;
    for (const auto& [at, delta] : deltas) {
      down += delta;
      worst = std::max(worst, down);
    }
  }
  return worst;
}

TEST(FaultPlans, MajorityBudgetNeverPausesAMajority) {
  DeploymentShape shape;  // universe of 3 per ring: at most 1 down
  FaultBudget budget;     // preserve_majority = true
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan plan = GeneratePlan(seed, shape, budget);
    EXPECT_LE(MaxConcurrentDown(plan), (shape.universe() - 1) / 2)
        << "seed " << seed;
    EXPECT_LE(plan.events.size(), budget.max_events) << "seed " << seed;
    for (const auto& ev : plan.events) {
      if (ev.kind == FaultEvent::Kind::kLossBurst) {
        EXPECT_LE(ev.loss, budget.max_loss) << "seed " << seed;
      }
    }
  }
}

TEST(FaultPlans, JsonRoundTripsExactly) {
  DeploymentShape shape;
  shape.n_sites = 2;  // unlock partitions so every kind appears
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan plan = GeneratePlan(seed, shape, FaultBudget::AnythingGoes());
    const auto parsed = ParsePlan(ToJson(plan));
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    EXPECT_EQ(*parsed, plan) << "seed " << seed;
  }
  // What only scripted plans carry: learner_pause (never drawn, valid in
  // any shape) and the workload shape.
  FaultPlan scripted;
  scripted.shape.workload = true;
  scripted.events.push_back({.kind = FaultEvent::Kind::kLearnerPause,
                             .at = Seconds(1),
                             .duration = Millis(300)});
  const auto parsed = ParsePlan(ToJson(scripted));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, scripted);
}

TEST(FaultPlans, ArtifactRoundTripsExactly) {
  ReplayArtifact art;
  art.plan = GeneratePlan(7, DeploymentShape{}, FaultBudget{});
  art.violated_oracle = "agreement";
  art.feed_digest = 0xDEADBEEFCAFEF00DULL;
  art.inject_corrupt_instance = 200;
  const auto parsed = ParseArtifact(ToJson(art));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, art);
}

TEST(FaultPlans, MalformedJsonRejected) {
  EXPECT_FALSE(ParsePlan("").has_value());
  EXPECT_FALSE(ParsePlan("{").has_value());
  EXPECT_FALSE(ParsePlan("{\"seed\": \"not a number\"}").has_value());
}

}  // namespace
}  // namespace mrp::check
