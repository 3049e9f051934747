// Focused RingNode behaviour tests: leadership hand-off rules, value-ID
// uniqueness across rounds, decided-watermark trimming, batch-timeout
// partial batches, recoverable-mode fail-over, the skip schedule under
// slow sends, and proposer window accounting under think-time jitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "multiring/sim_deployment.h"
#include "ringpaxos/learner.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"

namespace mrp::ringpaxos {
namespace {

using multiring::DeploymentOptions;
using multiring::SimDeployment;

TEST(RingNode, StepsDownWhenObservingAHigherRound) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);
  auto* learner = d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Millis(500));
  auto* old_coord = d.coordinator(0);
  ASSERT_TRUE(old_coord->is_coordinator());

  // Pause the coordinator long enough for a takeover, then revive it:
  // observing the successor's higher round it must stay a follower.
  d.coordinator_node(0)->SetDown(true);
  d.RunFor(Seconds(1));
  int leaders = 0;
  for (int i = 1; i < 3; ++i) {
    leaders += d.acceptor_node(0, i)->protocol_as<RingNode>()->is_coordinator();
  }
  ASSERT_EQ(leaders, 1) << "takeover did not happen";
  d.coordinator_node(0)->SetDown(false);
  d.RunFor(Seconds(1));
  EXPECT_FALSE(old_coord->is_coordinator()) << "zombie leader";
  leaders = 0;
  for (int i = 0; i < 3; ++i) {
    leaders += d.acceptor_node(0, i)->protocol_as<RingNode>()->is_coordinator();
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_GT(learner->delivered_msgs(), 100u);
}

TEST(RingNode, PartialBatchProposedOnTimeout) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.batch_timeout = Millis(2);
  SimDeployment d(opts);
  auto* learner = d.AddRingLearner(0, true);
  // One tiny message, far below batch_bytes: only the timeout can
  // propose it.
  ProposerConfig pc;
  pc.max_outstanding = 1;
  pc.payload_size = 64;
  auto* prop = d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Millis(100));
  EXPECT_GT(prop->acked_seq(), 0u) << "partial batch never proposed";
  EXPECT_GT(learner->delivered_msgs(), 5u);
}

TEST(RingNode, DecidedWatermarkTrimsAcceptorState) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.trim_keep = 100;
  SimDeployment d(opts);
  d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 8;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  auto* coord = d.coordinator(0);
  ASSERT_GT(coord->decided_instances(), 1000u);
  // The acceptor log holds roughly trim_keep records, not thousands.
  EXPECT_LT(coord->config().trim_keep + 200, coord->decided_instances());
}

TEST(RingNode, RecoverableModeSurvivesCoordinatorFailover) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.disk = true;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);
  auto* learner = d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  const auto before = learner->delivered_msgs();
  ASSERT_GT(before, 50u);
  d.coordinator_node(0)->SetDown(true);
  d.RunFor(Seconds(2));
  EXPECT_GT(learner->delivered_msgs(), before + 50)
      << "disk-mode fail-over did not resume delivery";
}

TEST(RingNode, VidsUniqueAcrossRoundsAndInstances) {
  // Collect vids from every P2A a learner-side snooper observes across
  // a fail-over; they must never repeat (value-ID consensus relies on
  // it).
  class VidSnooper final : public Protocol {
   public:
    void OnStart(Env&) override {}
    void OnMessage(Env&, NodeId, const MessagePtr& m) override {
      if (const auto* p2a = Cast<P2A>(m)) {
        // The same (instance, vid) may be retransmitted; a DIFFERENT
        // instance reusing a vid would be a bug.
        auto [it, fresh] = seen.emplace(p2a->vid, p2a->instance);
        if (!fresh) {
          EXPECT_EQ(it->second, p2a->instance) << "vid reused across instances";
        }
      }
    }
    std::map<ValueId, InstanceId> seen;
  };

  DeploymentOptions opts;
  opts.lambda_per_sec = 1000;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);
  auto& snoop_node = d.net().AddNode();
  auto* snooper = new VidSnooper();
  snoop_node.BindProtocol(std::unique_ptr<Protocol>(snooper));
  d.net().Subscribe(snoop_node.self(), d.ring(0).data_channel);
  d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  d.coordinator_node(0)->SetDown(true);  // force a new round's vids
  d.RunFor(Seconds(1));
  EXPECT_GT(snooper->seen.size(), 500u);
}

// Env whose clock advances by `send_cost` on every multicast, as a real
// send syscall does, and which fires its timers in deadline order.
class SlowSendEnv final : public Env {
 public:
  explicit SlowSendEnv(Duration send_cost) : send_cost_(send_cost), rng_(7) {}

  NodeId self() const override { return 1; }
  TimePoint now() const override { return now_; }
  void Send(NodeId, MessagePtr) override {}
  void Multicast(ChannelId, MessagePtr) override { now_ += send_cost_; }
  TimerId SetTimer(Duration delay, std::function<void()> cb) override {
    timers_.emplace(++next_id_, Timer{now_ + delay, delay, std::move(cb)});
    return next_id_;
  }
  void CancelTimer(TimerId id) override { timers_.erase(id); }
  Rng& rng() override { return rng_; }
  MetricsRegistry& metrics() override { return registry_; }

  // Fires the earliest timer; returns its delay and firing time.
  std::pair<Duration, TimePoint> FireNext() {
    auto first = timers_.begin();
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->second.deadline < first->second.deadline) first = it;
    }
    Timer t = std::move(first->second);
    timers_.erase(first);
    now_ = std::max(now_, t.deadline);
    const TimePoint fired_at = now_;
    t.cb();
    return {t.delay, fired_at};
  }

 private:
  struct Timer {
    TimePoint deadline;
    Duration delay;
    std::function<void()> cb;
  };
  Duration send_cost_;
  TimePoint now_{0};
  TimerId next_id_ = 0;
  std::map<TimerId, Timer> timers_;
  Rng rng_;
  MetricsRegistry registry_;
};

TEST(RingNode, SkipScheduleCountsTimeSpentProposing) {
  // An idle single-member ring proposes only skips, so after its last
  // Delta tick at time t it has proposed exactly floor(lambda * t)
  // logical instances — including the time its own multicasts took.
  RingConfig cfg;
  cfg.ring_members = {1};
  cfg.data_channel = 1;
  cfg.control_channel = 2;
  cfg.lambda_per_sec = 10'000;
  cfg.delta = Micros(1000);
  RingNode node(cfg);
  SlowSendEnv env(Micros(250));
  node.OnStart(env);
  ASSERT_TRUE(node.is_coordinator());

  TimePoint last_tick{0};
  for (int ticks = 0; ticks < 1000;) {
    const auto [delay, fired_at] = env.FireNext();
    if (delay != cfg.delta) continue;
    ++ticks;
    last_tick = fired_at;
  }
  const double expected = cfg.lambda_per_sec * ToSeconds(last_tick);
  EXPECT_NEAR(static_cast<double>(node.next_instance()), expected, 1.0)
      << "lambda schedule drifted over " << ToSeconds(last_tick) << " s";
}

TEST(Proposer, WindowNeverExceededWithThinkJitter) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);
  d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 5;
  pc.think_jitter = Micros(500);
  auto* prop = d.AddProposer(0, pc);
  d.Start();
  for (int i = 0; i < 50; ++i) {
    d.RunFor(Millis(20));
    EXPECT_LE(prop->outstanding(), 5u);
  }
  EXPECT_GT(prop->acked_seq(), 100u);
}

TEST(Proposer, ResendsOutstandingToNewCoordinator) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);
  auto* learner = d.AddRingLearner(0, true);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  pc.retry_timeout = Seconds(30);  // retries off: only the hand-off path
  auto* prop = d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Millis(500));
  const auto acked_before = prop->acked_seq();
  ASSERT_GT(acked_before, 10u);
  d.coordinator_node(0)->SetDown(true);
  d.RunFor(Seconds(2));
  // Progress resumed purely via heartbeat-triggered resubmission.
  EXPECT_GT(prop->acked_seq(), acked_before);
  EXPECT_GT(learner->delivered_msgs(), 0u);
}

}  // namespace
}  // namespace mrp::ringpaxos
