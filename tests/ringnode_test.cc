// Focused RingNode behaviour tests: leadership hand-off rules, value-ID
// uniqueness across rounds, decided-watermark trimming and the size of
// the acceptor tables, a lost P2A filled in behind the back of them,
// batch-timeout partial batches, recoverable-mode fail-over, the skip
// schedule under slow sends, and proposer window accounting under
// think-time jitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "multiring/sim_deployment.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"

namespace mrp::ringpaxos {
namespace {

using multiring::DeploymentOptions;
using multiring::SimDeployment;

// Single-ring learner on ring 0 that acknowledges its deliveries.
multiring::MergeLearner* AddAckingLearner(SimDeployment& d) {
  multiring::MergeLearner::Options mo;
  mo.send_delivery_acks = true;
  return d.AddMergeLearner({0}, std::move(mo));
}

TEST(RingNode, StepsDownWhenObservingAHigherRound) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);
  auto* learner = AddAckingLearner(d);
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
  EXPECT_GT(learner->total_delivered(), 100u);
}

TEST(RingNode, PartialBatchProposedOnTimeout) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.batch_timeout = Millis(2);
  SimDeployment d(opts);
  auto* learner = AddAckingLearner(d);
  // One tiny message, far below batch_bytes: only the timeout can
  // propose it.
  ProposerConfig pc;
  pc.max_outstanding = 1;
  pc.payload_size = 64;
  auto* prop = d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Millis(100));
  EXPECT_GT(prop->acked_seq(), 0u) << "partial batch never proposed";
  EXPECT_GT(learner->total_delivered(), 5u);
}

// Largest instance-table and record-table sizes of ring 0's first
// `members` acceptors, sampled every 10 ms over `run`.
std::size_t MaxAcceptorTables(SimDeployment& d, int members, Duration run) {
  std::size_t most = 0;
  for (Duration t{0}; t < run; t += Millis(10)) {
    d.RunFor(Millis(10));
    for (int i = 0; i < members; ++i) {
      const auto* node = d.acceptor_node(0, i)->protocol_as<RingNode>();
      most = std::max({most, node->instance_table_size(), node->record_count()});
    }
  }
  return most;
}

TEST(RingNode, DecidedWatermarkTrimsAcceptorState) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.trim_keep = 100;
  SimDeployment d(opts);
  AddAckingLearner(d);
  ProposerConfig pc;
  pc.max_outstanding = 8;
  d.AddProposer(0, pc);
  d.Start();
  // Coordinator and follower: the acceptor tables hold the trim_keep
  // retained instances plus at most one window in flight.
  const std::size_t most = MaxAcceptorTables(d, 2, Seconds(1));
  auto* coord = d.coordinator(0);
  ASSERT_GT(coord->decided_instances(), 1000u);
  EXPECT_GT(coord->decided_instances(), coord->config().trim_keep + 200);
  EXPECT_LE(most, opts.trim_keep + opts.window);
  EXPECT_GE(most, opts.trim_keep);
}

TEST(RingNode, IdleRingTablesHoldOneEntryPerSkip) {
  // An idle ring with lambda > 0 decides only skips spanning ~lambda*Delta
  // logical ids each; the acceptor tables keep one entry per skip, so
  // trim_keep logical ids cost trim_keep / span entries, not trim_keep.
  DeploymentOptions opts;
  opts.lambda_per_sec = 20'000;
  opts.delta = Millis(1);
  opts.trim_keep = 2000;
  SimDeployment d(opts);
  d.Start();
  const std::size_t most = MaxAcceptorTables(d, 2, Seconds(1));
  auto* coord = d.coordinator(0);
  ASSERT_GT(coord->skip_proposals(), 500u);
  ASSERT_EQ(coord->decided_msgs(), 0u);
  ASSERT_GT(coord->decided_watermark(), 4 * opts.trim_keep);
  const double span = static_cast<double>(coord->skipped_logical()) /
                      static_cast<double>(coord->skip_proposals());
  EXPECT_NEAR(span, 20.0, 1.0);
  EXPECT_LE(static_cast<double>(most),
            static_cast<double>(opts.trim_keep) / span + opts.window + 2);
  // The skip straddling the trim point is dropped with the ones below it.
  EXPECT_GE(static_cast<double>(most), static_cast<double>(opts.trim_keep) / span - 1);
}

TEST(RingNode, RecoverableModeSurvivesCoordinatorFailover) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.disk = true;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);
  auto* learner = AddAckingLearner(d);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  const auto before = learner->total_delivered();
  ASSERT_GT(before, 50u);
  d.coordinator_node(0)->SetDown(true);
  d.RunFor(Seconds(2));
  EXPECT_GT(learner->total_delivered(), before + 50)
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
  AddAckingLearner(d);
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
// send syscall does, which fires its timers in deadline order and
// records unicast sends.
class SlowSendEnv final : public Env {
 public:
  explicit SlowSendEnv(Duration send_cost) : send_cost_(send_cost), rng_(7) {}

  NodeId self() const override { return 1; }
  TimePoint now() const override { return now_; }
  void Send(NodeId to, MessagePtr m) override { sent.emplace_back(to, std::move(m)); }
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

  std::vector<std::pair<NodeId, MessagePtr>> sent;

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

TEST(RingNode, LostP2AInsertedBehindTheBackIsDecidedAndServed) {
  // A follower misses the P2A for instance k but accepts k+1..k+5; the
  // decisions arrive, then the retransmitted P2A for k lands behind the
  // back of the acceptor tables.
  RingConfig cfg;
  cfg.ring_members = {2, 1, 3};  // node 1 (the env's self) follows node 2
  cfg.data_channel = 1;
  cfg.control_channel = 2;
  cfg.lambda_per_sec = 0;
  RingNode node(cfg);
  SlowSendEnv env(Duration{0});
  node.OnStart(env);
  ASSERT_FALSE(node.is_coordinator());

  constexpr InstanceId k = 5;
  const auto vid = [](InstanceId i) { return ValueId{i + 1}; };
  const auto value = [](InstanceId i) {
    paxos::ClientMsg m;
    m.proposer = 7;
    m.seq = i;
    return paxos::Value::Batch({m});
  };
  const auto p2a = [&](InstanceId i) {
    return MakeMessage<P2A>(cfg.ring, 0, i, vid(i), value(i), std::vector<Decided>{},
                            cfg.ring_members);
  };
  const auto decide = [&](InstanceId from, InstanceId to) {
    std::vector<Decided> ds;
    for (InstanceId i = from; i <= to; ++i) ds.push_back({i, vid(i)});
    node.OnMessage(env, 2, MakeMessage<DecisionMsg>(cfg.ring, std::move(ds)));
  };

  for (InstanceId i = 0; i <= k + 5; ++i) {
    if (i != k) node.OnMessage(env, 2, p2a(i));
  }
  decide(0, k + 5);
  EXPECT_EQ(node.decided_watermark(), k) << "watermark passed a missing value";
  EXPECT_TRUE(node.DebugInstance(k).has_decided_vid);
  EXPECT_FALSE(node.DebugInstance(k).has_record);

  node.OnMessage(env, 2, p2a(k));  // retransmission, behind the back
  const auto dbg = node.DebugInstance(k);
  EXPECT_TRUE(dbg.has_record);
  EXPECT_TRUE(dbg.has_mark);
  EXPECT_EQ(dbg.mark_vid, vid(k));
  EXPECT_EQ(dbg.decided_vid, vid(k));
  EXPECT_EQ(node.instance_table_size(), k + 6);
  EXPECT_EQ(node.record_count(), k + 6);

  // The next decision moves the watermark past k.
  node.OnMessage(env, 2, p2a(k + 6));
  decide(k + 6, k + 6);
  EXPECT_EQ(node.decided_watermark(), k + 7);

  // A learner asking from k is served k first, then the rest in order.
  env.sent.clear();
  node.OnMessage(env, 9, MakeMessage<LearnReq>(cfg.ring, k, 100));
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0].first, 9u);
  const auto* rep = Cast<LearnRep>(env.sent[0].second);
  ASSERT_NE(rep, nullptr);
  ASSERT_EQ(rep->entries.size(), 7u);
  for (InstanceId i = 0; i < 7; ++i) {
    EXPECT_EQ(rep->entries[i].instance, k + i);
    EXPECT_EQ(rep->entries[i].vid, vid(k + i));
    EXPECT_EQ(rep->entries[i].value, value(k + i));
  }
}

TEST(Proposer, WindowNeverExceededWithThinkJitter) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);
  AddAckingLearner(d);
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
  auto* learner = AddAckingLearner(d);
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
  EXPECT_GT(learner->total_delivered(), 0u);
}

}  // namespace
}  // namespace mrp::ringpaxos
