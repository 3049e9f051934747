// Focused unit tests for pieces not already covered by the integration
// and property suites: ring configuration arithmetic, the simulator's
// FIFO clamp, proposer rate schedules and oscillation, learner-core edge
// cases, codec robustness against random corruption, and Totem token
// regeneration.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "baselines/totem.h"
#include "multiring/sim_deployment.h"
#include "net/codec.h"
#include "ringpaxos/config.h"
#include "ringpaxos/learner.h"
#include "ringpaxos/proposer.h"
#include "sim/network.h"

namespace mrp {
namespace {

// ----------------------------------------------------------- RingConfig

TEST(RingConfig, UniverseAndQuorums) {
  ringpaxos::RingConfig rc;
  rc.ring_members = {10, 11};
  rc.spares = {12};
  EXPECT_EQ(rc.Universe(), (std::vector<NodeId>{10, 11, 12}));
  EXPECT_EQ(rc.UniverseMajority(), 2u);
  EXPECT_TRUE(rc.InUniverse(12));
  EXPECT_FALSE(rc.InUniverse(13));
}

TEST(RingConfig, RoundOwnershipPartitionsRounds) {
  ringpaxos::RingConfig rc;
  rc.ring_members = {10, 11};
  rc.spares = {12};
  EXPECT_EQ(rc.RoundOwner(0), 10u);
  EXPECT_EQ(rc.RoundOwner(1), 11u);
  EXPECT_EQ(rc.RoundOwner(2), 12u);
  EXPECT_EQ(rc.RoundOwner(3), 10u);
  // NextRoundOwnedBy returns the smallest owned round strictly above.
  EXPECT_EQ(rc.NextRoundOwnedBy(11, 0), 1u);
  EXPECT_EQ(rc.NextRoundOwnedBy(11, 1), 4u);
  EXPECT_EQ(rc.NextRoundOwnedBy(10, 0), 3u);
  for (Round r : {1u, 4u, 7u}) {
    EXPECT_EQ(rc.RoundOwner(r), 11u);
  }
}

// ------------------------------------------------------ sim FIFO clamp

struct StampMsg final : MessageBase {
  int tag;
  std::size_t size;
  StampMsg(int t, std::size_t s) : tag(t), size(s) {}
  std::size_t WireSize() const override { return size; }
  static constexpr MessageType kType{0, "test.Stamp"};
  const MessageType& type() const override { return kType; }
};

class OrderRecorder final : public Protocol {
 public:
  void OnStart(Env&) override {}
  void OnMessage(Env&, NodeId, const MessagePtr& m) override {
    tags.push_back(Cast<StampMsg>(m)->tag);
  }
  std::vector<int> tags;
};

TEST(SimFifo, SameLinkNeverReorders) {
  // Alternating large and tiny packets on one link: jitter must never
  // let a tiny packet overtake a large one sent before it.
  sim::NetConfig cfg;
  cfg.seed = 5;
  sim::SimNetwork net(cfg);
  auto& a = net.AddNode();
  auto& b = net.AddNode();
  auto* rec = new OrderRecorder();
  b.BindProtocol(std::unique_ptr<Protocol>(rec));
  net.StartAll();
  a.Execute(Duration{0}, [&] {
    for (int i = 0; i < 200; ++i) {
      a.Send(b.self(), MakeMessage<StampMsg>(i, i % 2 == 0 ? 8000 : 60));
    }
  });
  net.RunFor(Seconds(1));
  ASSERT_EQ(rec->tags.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rec->tags[static_cast<std::size_t>(i)], i);
}

// -------------------------------------------------- proposer schedules

TEST(Proposer, RateScheduleSteps) {
  multiring::DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  multiring::SimDeployment d(opts);
  ringpaxos::ProposerConfig pc;
  pc.schedule = {{Seconds(0), 100.0}, {Seconds(1), 1000.0}};
  pc.payload_size = 1024;
  pc.poisson = false;
  auto* prop = d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  const auto w1 = prop->sent().TakeWindow();
  EXPECT_NEAR(w1.MsgPerSec(Seconds(1)), 100, 15);
  d.RunFor(Seconds(1));
  const auto w2 = prop->sent().TakeWindow();
  EXPECT_NEAR(w2.MsgPerSec(Seconds(1)), 1000, 60);
}

TEST(Proposer, OscillationModulatesRate) {
  multiring::DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  multiring::SimDeployment d(opts);
  ringpaxos::ProposerConfig pc;
  pc.schedule = {{Seconds(0), 1000.0}};
  pc.payload_size = 1024;
  pc.poisson = false;
  pc.osc_amplitude = 0.5;
  pc.osc_period = Seconds(2);  // peak at t=0.5s, trough at t=1.5s
  auto* prop = d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  const double first = prop->sent().TakeWindow().MsgPerSec(Seconds(1));
  d.RunFor(Seconds(1));
  const double second = prop->sent().TakeWindow().MsgPerSec(Seconds(1));
  EXPECT_GT(first, second + 300) << "first half covers the sine peak";
}

TEST(Proposer, PoissonMatchesTargetRateOnAverage) {
  multiring::DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  multiring::SimDeployment d(opts);
  ringpaxos::ProposerConfig pc;
  pc.schedule = {{Seconds(0), 2000.0}};
  pc.payload_size = 512;
  pc.poisson = true;
  auto* prop = d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(4));
  EXPECT_NEAR(prop->sent().TakeWindow().MsgPerSec(Seconds(4)), 2000, 120);
}

// ------------------------------------------------- LearnerCore details

ringpaxos::LearnerOptions BasicLearnerOpts() {
  ringpaxos::LearnerOptions lo;
  lo.ring.ring = 3;
  lo.ring.group = 3;
  lo.ring.ring_members = {0, 1};
  return lo;
}

paxos::ClientMsg Msg(std::uint64_t seq) {
  paxos::ClientMsg m;
  m.proposer = 9;
  m.seq = seq;
  m.payload_size = 100;
  return m;
}

TEST(LearnerCore, ValueBeforeDecisionAndAfter) {
  sim::SimNetwork net;
  auto& node = net.AddNode();
  ringpaxos::LearnerCore core(BasicLearnerOpts());

  // P2A value arrives, no decision yet: nothing ready.
  auto p2a = MakeMessage<ringpaxos::P2A>(3, 1, 0, 42, paxos::Value::Batch({Msg(1)}),
                                         std::vector<ringpaxos::Decided>{},
                                         std::vector<NodeId>{0, 1});
  EXPECT_TRUE(core.OnMessage(node, kNoNode, p2a));
  EXPECT_FALSE(core.HasReady());
  EXPECT_EQ(core.buffered_msgs(), 1u);

  // Decision arrives: ready.
  auto dec = MakeMessage<ringpaxos::DecisionMsg>(
      3, std::vector<ringpaxos::Decided>{{0, 42}});
  EXPECT_TRUE(core.OnMessage(node, kNoNode, dec));
  ASSERT_TRUE(core.HasReady());
  auto ready = core.Pop();
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(ready->instance, 0u);
  EXPECT_EQ(ready->value.msgs[0].seq, 1u);
  EXPECT_EQ(core.buffered_msgs(), 0u);
}

TEST(LearnerCore, StaleVidFromDeadRoundNotDelivered) {
  sim::SimNetwork net;
  auto& node = net.AddNode();
  ringpaxos::LearnerCore core(BasicLearnerOpts());

  // vids encode their round in the top bits (RingNode::NextVid).
  const ValueId vid_r1 = (ValueId{1} << 40) | 10;
  const ValueId vid_r2 = (ValueId{2} << 40) | 20;

  // A round-1 proposal is cached, then the decision arrives for a
  // round-2 vid: the round-1 value may be a LOSER (the round-2 proposer
  // was not forced to it) and must not be delivered.
  auto stale = MakeMessage<ringpaxos::P2A>(3, 1, 0, vid_r1,
                                           paxos::Value::Batch({Msg(7)}),
                                           std::vector<ringpaxos::Decided>{},
                                           std::vector<NodeId>{0, 1});
  core.OnMessage(node, kNoNode, stale);
  auto dec = MakeMessage<ringpaxos::DecisionMsg>(
      3, std::vector<ringpaxos::Decided>{{0, vid_r2}});
  core.OnMessage(node, kNoNode, dec);
  EXPECT_FALSE(core.HasReady());
  // The winning value arrives via retransmission (LearnRep).
  auto rep = MakeMessage<ringpaxos::LearnRep>(
      3, std::vector<ringpaxos::LearnRep::Entry>{
             {0, vid_r2, paxos::Value::Batch({Msg(8)})}});
  core.OnMessage(node, kNoNode, rep);
  ASSERT_TRUE(core.HasReady());
  EXPECT_EQ(core.Pop()->value.msgs[0].seq, 8u);
}

TEST(LearnerCore, LaterRoundReproposalFillsRelabelledDecision) {
  // After a fail-over, the same VALUE is re-proposed under a new vid.
  // A learner that recorded the OLD decision label must still accept
  // the value from the higher-round proposal (Phase 1 forced it).
  sim::SimNetwork net;
  auto& node = net.AddNode();
  ringpaxos::LearnerCore core(BasicLearnerOpts());

  const ValueId vid_r1 = (ValueId{1} << 40) | 10;
  const ValueId vid_r3 = (ValueId{3} << 40) | 1;

  // Decision with the round-1 label arrives first (value lost).
  auto dec = MakeMessage<ringpaxos::DecisionMsg>(
      3, std::vector<ringpaxos::Decided>{{0, vid_r1}});
  core.OnMessage(node, kNoNode, dec);
  EXPECT_FALSE(core.HasReady());
  // The new coordinator's round-3 re-proposal carries the same value.
  auto repro = MakeMessage<ringpaxos::P2A>(3, 3, 0, vid_r3,
                                           paxos::Value::Batch({Msg(7)}),
                                           std::vector<ringpaxos::Decided>{},
                                           std::vector<NodeId>{0, 1});
  core.OnMessage(node, kNoNode, repro);
  ASSERT_TRUE(core.HasReady());
  EXPECT_EQ(core.Pop()->value.msgs[0].seq, 7u);
}

TEST(LearnerCore, ForeignRingIgnored) {
  sim::SimNetwork net;
  auto& node = net.AddNode();
  ringpaxos::LearnerCore core(BasicLearnerOpts());
  auto other = MakeMessage<ringpaxos::P2A>(99, 1, 0, 42, paxos::Value::Skip(1),
                                           std::vector<ringpaxos::Decided>{},
                                           std::vector<NodeId>{0, 1});
  EXPECT_FALSE(core.OnMessage(node, kNoNode, other));
}

// ------------------------------------------------------ codec fuzzing

TEST(CodecFuzz, RandomCorruptionNeverCrashesOrFabricates) {
  // Take valid frames, flip/truncate bytes everywhere: DecodeMessage
  // must either return nullptr or a structurally valid message — never
  // crash or read out of bounds.
  using namespace ringpaxos;  // NOLINT
  paxos::ClientMsg m = Msg(5);
  m.payload = Bytes(64, 0xee);
  m.payload_size = 64;
  std::vector<Bytes> frames = {
      net::EncodeMessage(P2A{1, 2, 3, 4, paxos::Value::Batch({m}), {{1, 2}}, {0, 1}}),
      net::EncodeMessage(P1B{1, 8, {{10, 2, paxos::Value::Skip(7)}}}),
      net::EncodeMessage(LearnRep{3, {{7, 8, paxos::Value::Batch({m})}}}),
      net::EncodeMessage(Submit{4, m}),
  };
  Rng rng(2024);
  int decoded_ok = 0;
  for (const auto& frame : frames) {
    // Truncations at every length.
    for (std::size_t len = 0; len < frame.size(); ++len) {
      Bytes cut(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len));
      (void)net::DecodeMessage(cut);
    }
    // Random single- and multi-byte flips.
    for (int trial = 0; trial < 500; ++trial) {
      Bytes mutated = frame;
      const int flips = 1 + static_cast<int>(rng.below(4));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.below(mutated.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      }
      if (net::DecodeMessage(mutated) != nullptr) ++decoded_ok;
    }
  }
  // Some mutations decode (flips in payload bytes) — that is fine; the
  // point is no crash and no OOB read (ASAN/valgrind would flag it).
  EXPECT_GE(decoded_ok, 0);
}

// --------------------------------------------------- Totem token loss

TEST(Totem, TokenRegeneratedAfterLoss) {
  sim::SimNetwork net;
  baselines::TotemConfig tc;
  tc.data_channel = 100;
  tc.token_retry = Millis(30);
  std::vector<sim::SimNode*> daemon_nodes;
  for (int i = 0; i < 2; ++i) {
    auto& node = net.AddNode();
    tc.daemons.push_back(node.self());
    daemon_nodes.push_back(&node);
    net.Subscribe(node.self(), tc.data_channel);
  }
  auto& cnode = net.AddNode();
  baselines::TotemClient::Config cc;
  cc.daemon = tc.daemons[0];
  cc.group = 0;
  cc.window = 2;
  cc.payload_size = 1024;
  auto client = std::make_unique<baselines::TotemClient>(cc);
  auto* client_raw = client.get();
  cnode.BindProtocol(std::move(client));
  for (int i = 0; i < 2; ++i) {
    std::vector<baselines::TotemDaemon::ClientSub> subs;
    if (i == 0) subs.push_back({cnode.self(), {0}});
    daemon_nodes[i]->BindProtocol(std::make_unique<baselines::TotemDaemon>(tc, subs));
  }
  net.StartAll();
  net.RunFor(Millis(200));
  const auto before = client_raw->delivered().total_count();
  ASSERT_GT(before, 10u);

  // Swallow the token: pause daemon 1 so the in-flight token dies with
  // its deliveries, then resume. Daemon 0's watchdog must regenerate it.
  daemon_nodes[1]->SetDown(true);
  net.RunFor(Millis(100));
  daemon_nodes[1]->SetDown(false);
  net.RunFor(Millis(300));
  EXPECT_GT(client_raw->delivered().total_count(), before + 10)
      << "token was not regenerated";
}

}  // namespace
}  // namespace mrp
