// End-to-end observability tests: replay a 2-ring deployment and assert
// the metrics-registry counter invariants that tie the layers together
// (everything proposed is decided, every client message reaches the
// merge learner, the merge consumes exactly M instances per group per
// turn), plus trace determinism and the deployment metrics dump.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/trace.h"
#include "multiring/sim_deployment.h"

namespace mrp::multiring {
namespace {

using ringpaxos::ProposerConfig;

// Open-loop Poisson client that stops submitting at `stop`. With the
// deployment's default batch_bytes (8 kB) and 8 kB payloads, every
// non-skip instance carries exactly one client message, so logical
// instance counts and message counts line up 1:1.
ProposerConfig OpenLoopUntil(double rate, Duration stop) {
  ProposerConfig cfg;
  cfg.schedule = {{Seconds(0), rate}, {stop, 0.0}};
  cfg.payload_size = 8 * 1024;
  return cfg;
}

TEST(Observability, TwoRingReplayCounterInvariants) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  SimDeployment d(opts);
  constexpr std::uint32_t kM = 3;
  MergeLearner::Options mo;
  mo.m = kM;
  d.AddMergeLearner({0, 1}, std::move(mo));
  sim::SimNode* merge_node = d.learner_node(0);
  // Imbalanced rates: with lambda = 9000/s both coordinators propose
  // plenty of skip instances (Algorithm 1).
  d.AddProposer(0, OpenLoopUntil(400, Seconds(1)));
  d.AddProposer(1, OpenLoopUntil(150, Seconds(1)));
  d.Start();
  // Clients stop at 1 s; the long tail drains every client value through
  // decision and merge. Only skip instances remain in flight at the end.
  d.RunFor(Millis(2500));

  MetricsRegistry& mreg = merge_node->metrics();
  for (int r = 0; r < 2; ++r) {
    MetricsRegistry& reg = d.coordinator_node(r)->metrics();
    const std::uint64_t proposed = reg.CounterValue("ring.proposed_logical");
    const std::uint64_t skipped = reg.CounterValue("ring.proposed_skip_logical");
    const std::uint64_t decided = reg.CounterValue("ring.decided_logical");
    const std::uint64_t decided_msgs = reg.CounterValue("ring.decided_msgs");
    ASSERT_GT(proposed, 0u) << "ring " << r;
    EXPECT_GT(skipped, 0u) << "ring " << r;
    EXPECT_GT(reg.CounterValue("ring.skip_proposals"), 0u) << "ring " << r;

    // Conservation: every logical instance proposed is either decided or
    // still outstanding at the coordinator — exactly.
    EXPECT_EQ(decided + d.coordinator(r)->outstanding_logical(), proposed)
        << "ring " << r;

    // All client values were proposed before the skip-only tail, so by
    // now each one is decided: decided(non-skip) == proposed - skipped.
    EXPECT_EQ(decided_msgs, proposed - skipped) << "ring " << r;

    // ... and every one of them crossed the merge learner.
    const std::string mp = "merge.g" + std::to_string(r) + ".";
    EXPECT_EQ(mreg.CounterValue(mp + "delivered"), decided_msgs)
        << "ring " << r;

    // Cross-layer: the client's own submission counter agrees.
    EXPECT_EQ(d.proposer_node(static_cast<std::size_t>(r))
                  ->metrics()
                  .CounterValue("proposer.submitted"),
              decided_msgs)
        << "ring " << r;
  }

  // Deterministic merge: exactly M instances consumed per completed
  // turn, plus the partial progress of the turn in flight.
  const std::int64_t current_group = mreg.GaugeValue("merge.current_group");
  const std::int64_t partial = mreg.GaugeValue("merge.partial_consumed");
  ASSERT_GE(partial, 0);
  ASSERT_LT(partial, static_cast<std::int64_t>(kM));
  for (int g = 0; g < 2; ++g) {
    const std::string mp = "merge.g" + std::to_string(g) + ".";
    const std::uint64_t consumed = mreg.CounterValue(mp + "consumed");
    const std::uint64_t turns = mreg.CounterValue(mp + "turns");
    const std::uint64_t part =
        current_group == g ? static_cast<std::uint64_t>(partial) : 0u;
    ASSERT_GT(turns, 0u) << "group " << g;
    EXPECT_EQ(consumed, kM * turns + part) << "group " << g;
    EXPECT_GT(mreg.CounterValue(mp + "skip_consumed"), 0u) << "group " << g;
  }
  EXPECT_EQ(mreg.CounterValue("merge.halts"), 0u);

  // The per-ring decision caches export live-size gauges next to the
  // hit/miss counters; both must be registered on the merge node and the
  // counters must show the caches were actually exercised.
  const auto snap = mreg.TakeSnapshot();
  for (int r = 0; r < 2; ++r) {
    const std::string lp = "learner.r" + std::to_string(r) + ".";
    EXPECT_EQ(snap.gauges.count(lp + "cache.entries"), 1u) << "ring " << r;
    EXPECT_EQ(snap.gauges.count(lp + "cache.bytes"), 1u) << "ring " << r;
    EXPECT_GT(mreg.CounterValue(lp + "cache_hits") +
                  mreg.CounterValue(lp + "cache_misses"),
              0u)
        << "ring " << r;
  }
}

// One traced replay; returns the JSONL export. Traces are driven off
// sim time, so an identical topology+seed must produce identical bytes.
std::string RunTracedScenario() {
  Tracer& tracer = Tracer::Instance();
  tracer.Clear();
  tracer.Enable();
  DeploymentOptions opts;
  opts.n_rings = 2;
  SimDeployment d(opts);
  MergeLearner::Options mo;
  mo.m = 2;
  d.AddMergeLearner({0, 1}, std::move(mo));
  d.AddProposer(0, OpenLoopUntil(200, Millis(400)));
  d.AddProposer(1, OpenLoopUntil(100, Millis(400)));
  d.Start();
  d.RunFor(Millis(700));
  std::ostringstream os;
  tracer.WriteJsonl(os);
  tracer.Disable();
  tracer.Clear();
  return os.str();
}

TEST(Observability, TraceIsDeterministicAcrossIdenticalRuns) {
  const std::string first = RunTracedScenario();
  const std::string second = RunTracedScenario();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Sanity: the stream has the protocol events the benches rely on.
  EXPECT_NE(first.find("\"kind\":\"decide\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"propose_skip\""), std::string::npos);
}

TEST(Observability, DeploymentMetricsJsonDump) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  SimDeployment d(opts);
  d.AddMergeLearner({0, 1});
  d.AddProposer(0, OpenLoopUntil(100, Millis(200)));
  d.Start();
  d.RunFor(Millis(300));
  std::ostringstream os;
  d.net().WriteMetricsJson(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"sim_time_ns\""), std::string::npos);
  EXPECT_NE(out.find("\"net\""), std::string::npos);
  EXPECT_NE(out.find("\"nodes\""), std::string::npos);
  EXPECT_NE(out.find("nic.tx_pkts"), std::string::npos);
  EXPECT_NE(out.find("sched.events_run"), std::string::npos);
}

}  // namespace
}  // namespace mrp::multiring
