// Remaining plumbing coverage: the in-process bus, NodeRuntime's
// RunOnLoop, RingDispatch routing, merge-learner option details, and
// value/message helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "multiring/merge_learner.h"
#include "multiring/ring_dispatch.h"
#include "multiring/sim_deployment.h"
#include "common/pool.h"
#include "net/codec.h"
#include "paxos/messages.h"
#include "paxos/roles.h"
#include "paxos/value.h"
#include "ringpaxos/messages.h"
#include "runtime/node_runtime.h"

namespace mrp {
namespace {

// ----------------------------------------------------------- paxos::Value

TEST(Value, SpansAndSizes) {
  EXPECT_EQ(paxos::Value::Skip(7).LogicalInstances(), 7u);
  paxos::ClientMsg m;
  m.payload_size = 100;
  auto batch = paxos::Value::Batch({m, m});
  EXPECT_EQ(batch.LogicalInstances(), 1u);
  EXPECT_EQ(batch.PayloadBytes(), 200u);
  EXPECT_FALSE(batch.is_skip());
  EXPECT_TRUE(paxos::Value::Skip(1).is_skip());
  EXPECT_GT(batch.WireSize(), 200u);
}

TEST(MessageCast, DowncastHelpers) {
  MessagePtr m = MakeMessage<ringpaxos::P2B>(1, 2, 3, 4, 5);
  EXPECT_NE(Cast<ringpaxos::P2B>(m), nullptr);
  EXPECT_EQ(Cast<ringpaxos::P2A>(m), nullptr);
  EXPECT_NE(ringpaxos::AsRingMessage(*m), nullptr);
}

// ------------------------------------------------------------- InProcBus

struct EchoMsg final : MessageBase {
  int tag;
  explicit EchoMsg(int t) : tag(t) {}
  std::size_t WireSize() const override { return 16; }
  static constexpr MessageType kType{0, "test.Echo"};
  const MessageType& type() const override { return kType; }
};

class Collector final : public Protocol {
 public:
  void OnStart(Env&) override {}
  void OnMessage(Env&, NodeId from, const MessagePtr& m) override {
    if (const auto* e = Cast<EchoMsg>(m)) {
      tags.push_back({from, e->tag});
      ++count;
    }
  }
  std::vector<std::pair<NodeId, int>> tags;
  std::atomic<int> count{0};
};

TEST(InProcBus, ChannelsIsolateSubscribers) {
  runtime::LocalCluster cluster(runtime::LocalCluster::Kind::kInProc);
  auto c0 = std::make_unique<Collector>();
  auto c1 = std::make_unique<Collector>();
  auto c2 = std::make_unique<Collector>();
  auto* r0 = c0.get();
  auto* r1 = c1.get();
  auto* r2 = c2.get();
  cluster.AddNode(std::move(c0), {10});        // node 0 on channel 10
  cluster.AddNode(std::move(c1), {10, 11});    // node 1 on both
  cluster.AddNode(std::move(c2), {11});        // node 2 on channel 11
  cluster.Start();

  auto& sender = cluster.node(0);
  sender.loop().Post([&sender] {
    sender.Multicast(10, MakeMessage<EchoMsg>(100));
    sender.Multicast(11, MakeMessage<EchoMsg>(200));
    sender.Send(2, MakeMessage<EchoMsg>(300));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cluster.Stop();

  // Node 0 never self-delivers its channel-10 multicast.
  EXPECT_EQ(r0->count.load(), 0);
  ASSERT_EQ(r1->count.load(), 2);  // both multicasts
  ASSERT_EQ(r2->count.load(), 2);  // channel 11 multicast + unicast
  EXPECT_EQ(r2->tags[0].second + r2->tags[1].second, 500);
}

TEST(NodeRuntime, RunOnLoopExecutesOnLoopThreadAndBlocks) {
  runtime::LocalCluster cluster(runtime::LocalCluster::Kind::kInProc);
  cluster.AddNode(std::make_unique<Collector>(), {});
  cluster.Start();
  auto& node = cluster.node(0);
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop{false};
  node.RunOnLoop([&] {
    ran = true;
    on_loop = node.loop().on_loop_thread();
  });
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(on_loop.load());
  cluster.Stop();
}

// ----------------------------------------------------------- RingDispatch

TEST(RingDispatch, RoutesByRingAndBroadcastsOthers) {
  class RingCounter final : public Protocol {
   public:
    void OnStart(Env&) override { ++starts; }
    void OnMessage(Env&, NodeId, const MessagePtr& m) override {
      if (Cast<ringpaxos::Heartbeat>(m)) ++ring_msgs;
      if (Cast<EchoMsg>(m)) ++other_msgs;
    }
    int starts = 0;
    int ring_msgs = 0;
    int other_msgs = 0;
  };

  sim::SimNetwork net;
  auto& node = net.AddNode();
  auto dispatch = std::make_unique<multiring::RingDispatch>();
  auto p0 = std::make_unique<RingCounter>();
  auto p1 = std::make_unique<RingCounter>();
  auto* r0 = p0.get();
  auto* r1 = p1.get();
  dispatch->AddRing(0, std::move(p0));
  dispatch->AddRing(1, std::move(p1));
  node.BindProtocol(std::move(dispatch));
  auto& sender = net.AddNode();
  sender.BindProtocol(std::make_unique<Collector>());
  net.StartAll();

  sender.Execute(Duration{0}, [&] {
    sender.Send(node.self(), MakeMessage<ringpaxos::Heartbeat>(0, 1, 9));
    sender.Send(node.self(), MakeMessage<ringpaxos::Heartbeat>(1, 1, 9));
    sender.Send(node.self(), MakeMessage<ringpaxos::Heartbeat>(7, 1, 9));  // unknown ring
    sender.Send(node.self(), MakeMessage<EchoMsg>(1));  // non-ring: both
  });
  net.RunFor(Millis(10));

  EXPECT_EQ(r0->starts, 1);
  EXPECT_EQ(r1->starts, 1);
  EXPECT_EQ(r0->ring_msgs, 1);
  EXPECT_EQ(r1->ring_msgs, 1);
  EXPECT_EQ(r0->other_msgs, 1);
  EXPECT_EQ(r1->other_msgs, 1);
}

// ----------------------------------------- merge learner option details

TEST(MergeLearner, TickIntervalDrivesRecoveryCadence) {
  // A merge learner with a long tick interval recovers slower than one
  // with a short interval under loss (same seed, same topology). The
  // tick is every source's one recovery cadence, so this holds for a
  // Ring Paxos ring and for a plain-Paxos-ordered group alike.
  auto run_ring = [](Duration tick) {
    multiring::DeploymentOptions opts;
    opts.n_rings = 1;
    opts.lambda_per_sec = 0;
    opts.net.loss_probability = 0.05;
    opts.net.seed = 77;
    multiring::SimDeployment d(opts);
    multiring::MergeLearner::Options mo;
    mo.tick_interval = tick;
    mo.send_delivery_acks = true;
    auto* raw = d.AddMergeLearner({0}, std::move(mo));
    ringpaxos::ProposerConfig pc;
    pc.max_outstanding = 4;
    pc.payload_size = 1000;
    d.AddProposer(0, pc);
    d.Start();
    d.RunFor(Seconds(2));
    return raw->total_delivered();
  };
  // One Paxos proposer, three acceptors, and a learner of one
  // PaxosGroupSource, which asks the proposer for lost decisions.
  auto run_paxos = [](Duration tick) {
    sim::NetConfig cfg;
    cfg.loss_probability = 0.05;
    cfg.seed = 77;
    sim::SimNetwork net(cfg);
    paxos::PaxosConfig pc;
    pc.decision_channel = 1;
    auto& pnode = net.AddNode();
    pc.proposers.push_back(pnode.self());
    for (int i = 0; i < 3; ++i) {
      auto& anode = net.AddNode();
      pc.acceptors.push_back(anode.self());
      anode.BindProtocol(std::make_unique<paxos::PaxosAcceptor>());
    }
    auto prop = std::make_unique<paxos::PaxosProposer>(pc, 0);
    auto* prop_raw = prop.get();
    pnode.BindProtocol(std::move(prop));
    multiring::MergeLearner::Options mo;
    mo.tick_interval = tick;
    paxos::PaxosGroupSource::Options po;
    po.group = pc.group;
    po.proposers = pc.proposers;
    mo.sources.push_back(std::make_unique<paxos::PaxosGroupSource>(po));
    auto learner = std::make_unique<multiring::MergeLearner>(std::move(mo));
    auto* raw = learner.get();
    auto& lnode = net.AddNode();
    lnode.BindProtocol(std::move(learner));
    net.Subscribe(lnode.self(), pc.decision_channel);
    net.StartAll();
    // One submission every 2 ms for the whole run.
    for (int i = 0; i < 1000; ++i) {
      net.scheduler().At(net.now() + Millis(2 * i), [&pnode, prop_raw, i] {
        paxos::ClientMsg m;
        m.proposer = pnode.self();
        m.seq = static_cast<std::uint64_t>(i + 1);
        m.payload_size = 100;
        pnode.Execute(Duration{0}, [&pnode, prop_raw, m] {
          prop_raw->Submit(pnode, m);
        });
      });
    }
    net.RunFor(Seconds(2));
    return raw->total_delivered();
  };
  for (bool paxos_group : {false, true}) {
    SCOPED_TRACE(paxos_group ? "paxos-ordered group" : "ring paxos ring");
    auto run = paxos_group ? +run_paxos : +run_ring;
    const auto fast = run(Millis(5));
    const auto slow = run(Millis(200));
    EXPECT_GT(fast, slow) << "recovery cadence had no effect";
    EXPECT_GT(slow, 50u) << "even slow ticks must make progress";
  }
}

// ------------------------------------- codec round-trip, full message set
//
// Every message struct in src/paxos/messages.h and src/ringpaxos/
// messages.h must encode/decode losslessly, including empty and
// max-size payloads. tools/lint/mrp_lint (rule codec-coverage) checks
// that each struct appears, namespace-qualified, in this coverage.

namespace codec_coverage {

template <typename T>
std::shared_ptr<const T> Roundtrip(const T& msg) {
  Bytes frame = net::EncodeMessage(msg);
  EXPECT_FALSE(frame.empty()) << msg.TypeName() << " not encodable";
  MessagePtr decoded = net::DecodeMessage(frame);
  EXPECT_NE(decoded, nullptr) << msg.TypeName() << " not decodable";
  // The zero-copy overload must be byte-identical to the copying one
  // for every covered message type: re-encoding either decode
  // reproduces the original frame exactly.
  MessagePtr viewed = net::DecodeMessage(std::make_shared<const Bytes>(frame));
  EXPECT_NE(viewed, nullptr) << msg.TypeName() << " not view-decodable";
  if (decoded != nullptr && viewed != nullptr) {
    EXPECT_EQ(net::EncodeMessage(*decoded), frame)
        << msg.TypeName() << " copying decode not canonical";
    EXPECT_EQ(net::EncodeMessage(*viewed), frame)
        << msg.TypeName() << " view decode differs from copying decode";
  }
  auto typed = std::dynamic_pointer_cast<const T>(decoded);
  EXPECT_NE(typed, nullptr) << msg.TypeName() << " decoded to wrong type";
  return typed;
}

paxos::ClientMsg MsgOfSize(std::uint32_t payload_bytes, std::uint64_t seq = 1) {
  paxos::ClientMsg m;
  m.group = 2;
  m.proposer = 4;
  m.seq = seq;
  m.sent_at = Micros(250);
  m.payload_size = payload_bytes;
  m.payload.assign(payload_bytes, static_cast<std::uint8_t>(seq & 0xff));
  return m;
}

// The prototype batches ~8 kB per instance and LCR runs 32 kB messages;
// 64 kB is comfortably past every configuration the benches use.
constexpr std::uint32_t kMaxPayload = 64 * 1024;

TEST(CodecCoverage, PaxosMessagesRoundtrip) {
  // Empty and max-size payloads through the classic Paxos set.
  for (std::uint32_t payload : {0u, kMaxPayload}) {
    const paxos::ClientMsg m = MsgOfSize(payload);
    EXPECT_EQ(Roundtrip(paxos::SubmitReq{m})->msg, m);
    auto p2a = Roundtrip(paxos::Phase2A{7, 3, paxos::Value::Batch({m})});
    ASSERT_EQ(p2a->value.msgs.size(), 1u);
    EXPECT_EQ(p2a->value.msgs[0], m);
    auto p1b = Roundtrip(paxos::Phase1B{7, 3, 2, paxos::Value::Batch({m})});
    ASSERT_TRUE(p1b->accepted.has_value());
    EXPECT_EQ(p1b->accepted->msgs[0], m);
    auto dec = Roundtrip(paxos::DecisionMsg{9, paxos::Value::Batch({m}), 5});
    EXPECT_EQ(dec->group, 5u);
    EXPECT_EQ(dec->value.msgs[0], m);
  }
  // No-payload / empty-batch shapes.
  EXPECT_FALSE(Roundtrip(paxos::Phase1B{7, 3, 0, std::nullopt})->accepted);
  EXPECT_TRUE(Roundtrip(paxos::Phase2A{1, 1, paxos::Value::Batch({})})
                  ->value.msgs.empty());
  EXPECT_EQ(Roundtrip(paxos::Phase1A{7, 3})->instance, 7u);
  EXPECT_EQ(Roundtrip(paxos::Phase2B{8, 4})->round, 4u);
  EXPECT_EQ(Roundtrip(paxos::LearnReq{42})->from_instance, 42u);
}

TEST(CodecCoverage, RingPaxosDataMessagesRoundtrip) {
  for (std::uint32_t payload : {0u, kMaxPayload}) {
    const paxos::ClientMsg m = MsgOfSize(payload);
    EXPECT_EQ(Roundtrip(ringpaxos::Submit{4, m})->msg, m);
    ringpaxos::P2A p2a{1, 7, 1234, 99, paxos::Value::Batch({m, MsgOfSize(0, 2)}),
                       {{10, 11}, {12, 13}}, {0, 1, 2}};
    auto out = Roundtrip(p2a);
    EXPECT_EQ(out->value, p2a.value);
    ASSERT_EQ(out->decided.size(), 2u);
    EXPECT_EQ(out->decided[1].instance, 12u);
    EXPECT_EQ(out->layout, p2a.layout);
    ringpaxos::LearnRep rep{
        3, {{7, 8, paxos::Value::Skip(2)}, {9, 10, paxos::Value::Batch({m})}}};
    auto rout = Roundtrip(rep);
    ASSERT_EQ(rout->entries.size(), 2u);
    EXPECT_TRUE(rout->entries[0].value.is_skip());
    EXPECT_EQ(rout->entries[1].value.msgs[0], m);
    ringpaxos::P1B p1b{1, 8, {{10, 2, paxos::Value::Batch({m})}}};
    auto bout = Roundtrip(p1b);
    ASSERT_EQ(bout->accepted.size(), 1u);
    EXPECT_EQ(bout->accepted[0].value.msgs[0], m);
  }
  // Skip spans survive, and a max-width piggyback list survives.
  auto skip = Roundtrip(
      ringpaxos::P2A{2, 3, 500, 42, paxos::Value::Skip(100000), {}, {5, 6}});
  EXPECT_EQ(skip->value.skip_count, 100000u);
  std::vector<ringpaxos::Decided> wide;
  for (std::uint64_t i = 0; i < 4096; ++i) wide.push_back({i, i * 2 + 1});
  auto dec = Roundtrip(ringpaxos::DecisionMsg{1, wide});
  ASSERT_EQ(dec->decided.size(), wide.size());
  EXPECT_EQ(dec->decided.back().vid, wide.back().vid);
  EXPECT_TRUE(Roundtrip(ringpaxos::DecisionMsg{1, {}})->decided.empty());
}

TEST(CodecCoverage, RingPaxosControlMessagesRoundtrip) {
  EXPECT_EQ(Roundtrip(ringpaxos::SubmitAck{1, 2, 42})->up_to_seq, 42u);
  EXPECT_EQ(Roundtrip(ringpaxos::P2B{1, 2, 3, 4, 5})->votes, 5u);
  auto p1a = Roundtrip(ringpaxos::P1A{1, 8, 55, {2, 3}});
  EXPECT_EQ(p1a->from_instance, 55u);
  EXPECT_EQ(p1a->layout, (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(Roundtrip(ringpaxos::P1A{1, 8, 0, {}})->layout.empty());
  EXPECT_TRUE(Roundtrip(ringpaxos::P1B{1, 8, {}})->accepted.empty());
  EXPECT_EQ(Roundtrip(ringpaxos::Heartbeat{1, 9, 3})->coordinator, 3u);
  EXPECT_EQ(Roundtrip(ringpaxos::HeartbeatAck{1, 9})->round, 9u);
  EXPECT_EQ(Roundtrip(ringpaxos::LearnReq{1, 100, 16})->max_values, 16u);
  EXPECT_TRUE(Roundtrip(ringpaxos::LearnRep{1, {}})->entries.empty());
  auto trim = Roundtrip(ringpaxos::TrimNotice{2, 100, 500});
  EXPECT_EQ(trim->low_watermark, 100u);
  EXPECT_EQ(trim->high_watermark, 500u);
  EXPECT_EQ(Roundtrip(ringpaxos::DeliveryAck{1, 2, 7})->seq, 7u);
}

// Zero-copy decode plumbing: payloads must alias the shared frame (no
// copy), and the frame must stay alive for as long as any decoded
// message views it.
TEST(CodecCoverage, ViewDecodeAliasesAndKeepsFrameAlive) {
  const paxos::ClientMsg m = MsgOfSize(4096);
  auto frame =
      std::make_shared<const Bytes>(net::EncodeMessage(ringpaxos::Submit{4, m}));
  const std::uint8_t* lo = frame->data();
  const std::uint8_t* hi = frame->data() + frame->size();

  auto viewed = std::dynamic_pointer_cast<const ringpaxos::Submit>(
      net::DecodeMessage(frame));
  ASSERT_NE(viewed, nullptr);
  EXPECT_FALSE(viewed->msg.payload.owning());
  EXPECT_GE(viewed->msg.payload.data(), lo);
  EXPECT_LE(viewed->msg.payload.data() + viewed->msg.payload.size(), hi);
  EXPECT_EQ(viewed->msg, m);

  // Copying decode owns its payload and does not alias the frame.
  auto copied = std::dynamic_pointer_cast<const ringpaxos::Submit>(
      net::DecodeMessage(std::span<const std::uint8_t>(*frame)));
  ASSERT_NE(copied, nullptr);
  EXPECT_TRUE(copied->msg.payload.owning());
  EXPECT_EQ(copied->msg, viewed->msg);

  // The message is now the frame's only ref; the bytes must stay valid.
  const long refs_before = frame.use_count();
  EXPECT_GT(refs_before, 1);
  frame.reset();
  EXPECT_EQ(viewed->msg.payload, m.payload);
}

}  // namespace codec_coverage

// ---- Allocation pool (common/pool.h) ----

TEST(ObjectPool, ReusesReleasedObjectsLifo) {
  ObjectPool<int> pool;
  int* a = pool.Acquire();
  int* b = pool.Acquire();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.allocated(), 2u);
  pool.Release(a);
  pool.Release(b);
  EXPECT_EQ(pool.free_count(), 2u);
  // LIFO: the most recently released object comes back first.
  EXPECT_EQ(pool.Acquire(), b);
  EXPECT_EQ(pool.Acquire(), a);
  EXPECT_EQ(pool.allocated(), 2u);
  EXPECT_EQ(pool.acquired(), 4u);
  EXPECT_EQ(pool.reused(), 2u);
  // Un-released objects are reclaimed by the pool's destructor (arena
  // ownership) — nothing to assert here beyond "no leak" under ASan.
}

TEST(MergeLearner, GroupsSortedByGroupId) {
  multiring::MergeLearner::Options mo;
  for (GroupId g : {GroupId{5}, GroupId{1}, GroupId{3}}) {
    ringpaxos::LearnerOptions lo;
    lo.ring.ring = g;
    lo.ring.group = g;
    lo.ring.ring_members = {0};
    mo.groups.push_back(lo);
  }
  multiring::MergeLearner learner(std::move(mo));
  ASSERT_EQ(learner.group_count(), 3u);
  EXPECT_EQ(learner.stats(0).group, 1u);
  EXPECT_EQ(learner.stats(1).group, 3u);
  EXPECT_EQ(learner.stats(2).group, 5u);
}

}  // namespace
}  // namespace mrp
