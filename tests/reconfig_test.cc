// Elastic-reconfiguration subsystem tests (docs/RECONFIG.md): the
// versioned RingConfiguration/RingHolder routing view, ReconfigPlan
// codec and magic probe, dynamic learner subscriptions activating at
// merge turn boundaries (with discard counters attributed to the
// discarded message's group), a live group split end to end under the
// ReconfigOracle, and a hot ring-membership swap ordered through the
// ring itself.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/oracles.h"
#include "check/reconfig_oracle.h"
#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"
#include "net/codec.h"
#include "reconfig/messages.h"
#include "reconfig/plan.h"
#include "reconfig/repartition.h"
#include "reconfig/ring_view.h"
#include "ringpaxos/client_core.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"
#include "smr/client.h"
#include "smr/replica.h"

namespace mrp::reconfig {
namespace {

using multiring::DeploymentOptions;
using multiring::MergeLearner;
using multiring::SimDeployment;
using ringpaxos::LearnerOptions;

GroupRoute Route(GroupId g, RingId ring, NodeId coord) {
  GroupRoute r;
  r.group = g;
  r.ring = ring;
  r.coordinator = coord;
  r.data_channel = 10 + ring;
  r.control_channel = 20 + ring;
  r.ring_members = {coord, coord + 1};
  return r;
}

TEST(RingConfiguration, RoutesAndKeyRanges) {
  RingConfiguration cfg(3, {Route(1, 1, 50), Route(0, 0, 40)},
                        {{500, 999, 1}, {0, 499, 0}});
  EXPECT_EQ(cfg.version(), 3u);
  // Routes and ranges are kept sorted regardless of construction order.
  EXPECT_EQ(cfg.routes()[0].group, 0u);
  EXPECT_EQ(cfg.ranges()[0].lo, 0u);

  ASSERT_NE(cfg.RouteOf(1), nullptr);
  EXPECT_EQ(cfg.RouteOf(1)->coordinator, 50u);
  EXPECT_EQ(cfg.RouteOf(9), nullptr);

  EXPECT_EQ(cfg.GroupOfKey(0), 0u);
  EXPECT_EQ(cfg.GroupOfKey(499), 0u);
  EXPECT_EQ(cfg.GroupOfKey(500), 1u);
  EXPECT_EQ(cfg.GroupOfKey(999), 1u);
  EXPECT_EQ(cfg.GroupOfKey(1000), kNoGroup);

  EXPECT_TRUE(cfg.SinglePartition(10, 499));
  EXPECT_FALSE(cfg.SinglePartition(490, 510));
  EXPECT_FALSE(cfg.SinglePartition(990, 1010));

  EXPECT_EQ(cfg.GroupsOverlapping(0, 100), (std::vector<GroupId>{0}));
  EXPECT_EQ(cfg.GroupsOverlapping(400, 600), (std::vector<GroupId>{0, 1}));
  EXPECT_TRUE(cfg.GroupsOverlapping(2000, 3000).empty());
}

TEST(RingConfiguration, CodecRoundTripAndFingerprint) {
  RingConfiguration cfg(7, {Route(0, 0, 40), Route(1, 1, 50)},
                        {{0, 499, 0}, {500, 999, 1}}, /*all_group=*/2);
  const Bytes wire = cfg.Encode();
  auto back = RingConfiguration::Decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version(), 7u);
  EXPECT_EQ(back->all_group(), 2u);
  EXPECT_EQ(back->routes(), cfg.routes());
  EXPECT_EQ(back->ranges(), cfg.ranges());
  EXPECT_EQ(back->Fingerprint(), cfg.Fingerprint());

  RingConfiguration other(8, {Route(0, 0, 40)}, {{0, 999, 0}});
  EXPECT_NE(other.Fingerprint(), cfg.Fingerprint());

  EXPECT_FALSE(RingConfiguration::Decode(Bytes{1, 2, 3}).has_value());
}

TEST(RingConfiguration, DecodeSortsOutOfOrderRoutesAndRanges) {
  // Encode always writes sorted lists; bytes that list routes and
  // ranges out of order still decode to the sorted view.
  ByteWriter w;
  w.u64(4);  // version
  w.u32(kNoGroup);
  w.varint(3);
  for (std::uint32_t g : {2u, 0u, 1u}) {
    for (int field = 0; field < 5; ++field) w.u32(g);
    w.varint(1);
    w.u32(g);
  }
  w.varint(2);
  for (std::uint64_t lo : {500u, 0u}) {
    w.u64(lo);
    w.u64(lo + 499);
    w.u32(lo == 0 ? 0 : 1);
  }
  auto cfg = RingConfiguration::Decode(w.data());
  ASSERT_TRUE(cfg.has_value());
  ASSERT_EQ(cfg->routes().size(), 3u);
  for (std::uint32_t g = 0; g < 3; ++g) EXPECT_EQ(cfg->routes()[g].group, g);
  ASSERT_EQ(cfg->ranges().size(), 2u);
  EXPECT_EQ(cfg->ranges()[0].lo, 0u);
  EXPECT_EQ(cfg->ranges()[1].lo, 500u);
  EXPECT_EQ(cfg->GroupOfKey(700), 1u);
}

TEST(RingHolder, MonotonicInstallNotifiesSubscribers) {
  RingHolder holder;
  EXPECT_EQ(holder.version(), 0u);
  EXPECT_EQ(holder.Get(), nullptr);

  std::vector<std::uint64_t> seen;
  holder.Subscribe([&seen](const RingConfiguration& c) {
    seen.push_back(c.version());
  });

  EXPECT_TRUE(holder.Install(RingConfiguration(1, {Route(0, 0, 40)},
                                               {{0, 999, 0}})));
  auto snap = holder.Get();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 1u);

  // Stale and duplicate versions are rejected; the snapshot a reader
  // took before the flip stays valid.
  EXPECT_FALSE(holder.Install(RingConfiguration(1, {}, {})));
  EXPECT_TRUE(holder.Install(RingConfiguration(3, {Route(0, 0, 40)},
                                               {{0, 999, 0}})));
  EXPECT_FALSE(holder.Install(RingConfiguration(2, {}, {})));
  EXPECT_EQ(holder.version(), 3u);
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_EQ(holder.installs(), 2u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 3}));
}

TEST(ReconfigPlan, CodecAndMagicProbe) {
  ReconfigPlan split = ReconfigPlan::Split(9, 0, 1, 500, 999, 4);
  const Bytes wire = split.Encode();
  EXPECT_TRUE(ReconfigPlan::IsPlanPayload(wire));
  EXPECT_EQ(wire[0], ReconfigPlan::kMagic);
  auto back = ReconfigPlan::Decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, split);
  EXPECT_EQ(back->Fingerprint(), split.Fingerprint());

  ReconfigPlan swap = ReconfigPlan::Swap(10, 2, 7, 8);
  auto swap_back = ReconfigPlan::Decode(swap.Encode());
  ASSERT_TRUE(swap_back.has_value());
  EXPECT_EQ(*swap_back, swap);
  EXPECT_NE(swap_back->Fingerprint(), split.Fingerprint());

  // A valid SMR command payload is not a plan payload (the magic byte
  // is outside the opcode range), and corrupt plans are rejected.
  Bytes cmd = smr::Command::Insert(1, "x").Encode();
  EXPECT_FALSE(ReconfigPlan::IsPlanPayload(cmd));
  Bytes bad = wire;
  bad[1] = 99;  // invalid kind
  EXPECT_FALSE(ReconfigPlan::Decode(bad).has_value());
  bad = wire;
  bad[0] = 0;  // wrong magic
  EXPECT_FALSE(ReconfigPlan::Decode(bad).has_value());
}

template <typename T>
const T* Reencode(const MessageBase& m, Bytes* keep, MessagePtr* hold) {
  *keep = net::EncodeMessage(m);
  *hold = net::DecodeMessage(*keep);
  return *hold == nullptr ? nullptr : Cast<T>(*hold);
}

TEST(ReconfigMessages, CodecRoundTrips) {
  Bytes buf;
  MessagePtr hold;
  RingConfiguration cfg(4, {Route(0, 0, 40), Route(1, 1, 50)},
                        {{0, 499, 0}, {500, 999, 1}});
  const auto* ru = Reencode<reconfig::RoutingUpdate>(
      reconfig::RoutingUpdate(cfg.version(), cfg.Encode()), &buf, &hold);
  ASSERT_NE(ru, nullptr);
  EXPECT_EQ(ru->version, 4u);
  auto carried = RingConfiguration::Decode(ru->config);
  ASSERT_TRUE(carried.has_value());
  EXPECT_EQ(carried->Fingerprint(), cfg.Fingerprint());

  const auto* hr = Reencode<reconfig::HandoffRequest>(
      reconfig::HandoffRequest(21, 1), &buf, &hold);
  ASSERT_NE(hr, nullptr);
  EXPECT_EQ(hr->plan_id, 21u);
  EXPECT_EQ(hr->target_group, 1u);

  const auto* ps = Reencode<reconfig::PlanStatus>(
      reconfig::PlanStatus(21, true), &buf, &hold);
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->plan_id, 21u);
  EXPECT_TRUE(ps->ok);

  // Truncated frames are rejected, not misparsed.
  Bytes trunc = net::EncodeMessage(reconfig::PlanStatus(21, false));
  trunc.pop_back();
  EXPECT_EQ(net::DecodeMessage(trunc), nullptr);
}

TEST(ReconfigMessages, SealCommandAndRedirectResponseRoundTrip) {
  // kSeal rides the SMR command codec with its target group.
  smr::Command seal = smr::Command::Seal(21, 500, 999, 1);
  seal.client = 9;
  auto back = smr::Command::Decode(seal.Encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, smr::Command::Op::kSeal);
  EXPECT_EQ(back->req_id, 21u);
  EXPECT_EQ(back->kmin, 500u);
  EXPECT_EQ(back->kmax, 999u);
  EXPECT_EQ(back->target_group, 1u);

  // A redirecting response survives the wire; the default stays kNoGroup.
  Bytes buf;
  MessagePtr hold;
  const auto* r = Reencode<smr::Response>(
      smr::Response(7, 0, false, {}, /*redir=*/1), &buf, &hold);
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->ok);
  EXPECT_EQ(r->redirect, 1u);
  const auto* plain =
      Reencode<smr::Response>(smr::Response(8, 0, true), &buf, &hold);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->redirect, kNoGroup);
}

// ------------------------------------ dynamic subscriptions (tentpole a)

TEST(DynamicSubscription, JoinAndLeaveActivateAtTurnBoundaries) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  SimDeployment d(opts);
  const GroupId g0 = d.ring(0).group;
  const GroupId g1 = d.ring(1).group;

  // Reference learner on both rings: its group-1 frontier is the
  // snapshot cut the late joiner positions at.
  auto* ref = d.AddMergeLearner({0, 1});

  // Dynamic learner: starts subscribed to ring 0 only, but listens on
  // both rings' channels so a later join sees the decision stream.
  MergeLearner::Options mo;
  std::map<GroupId, std::uint64_t> delivered;
  mo.on_deliver = [&delivered](GroupId g, const paxos::ClientMsg&) {
    ++delivered[g];
  };
  std::vector<std::pair<GroupId, bool>> changes;
  InstanceId join_cut = 0;
  mo.on_subscription_change = [&changes, &join_cut](GroupId g, bool joined,
                                                    InstanceId cut) {
    changes.emplace_back(g, joined);
    if (joined) join_cut = cut;
  };
  InstanceId min_ring1_decide = ~0ULL;
  const RingId ring1 = d.ring(1).ring;
  mo.on_decide = [&min_ring1_decide, ring1](RingId ring, InstanceId inst,
                                            const paxos::Value&) {
    if (ring == ring1 && inst < min_ring1_decide) min_ring1_decide = inst;
  };
  auto* dyn = d.AddLearnerNode(
      {0, 1}, [&mo](sim::SimNode&, std::vector<LearnerOptions> groups) {
        mo.groups = {groups[0]};
        return std::make_unique<MergeLearner>(std::move(mo));
      });

  ringpaxos::ProposerConfig pc;
  pc.max_outstanding = 4;
  d.AddProposer(0, pc);
  d.AddProposer(1, pc);
  d.Start();
  d.RunFor(Millis(500));

  EXPECT_EQ(dyn->SubscribedGroups(), (std::vector<GroupId>{g0}));
  EXPECT_GT(delivered[g0], 0u);
  EXPECT_EQ(delivered[g1], 0u);

  // Join group 1, positioned at the reference learner's frontier —
  // exactly the live-join bootstrap a repartition target performs.
  InstanceId cut = 0;
  for (std::size_t i = 0; i < ref->group_count(); ++i) {
    if (ref->group_source(i)->group() == g1) {
      cut = ref->group_source(i)->next_instance();
    }
  }
  ASSERT_GT(cut, 0u);
  ringpaxos::LearnerOptions jo;
  jo.ring = d.ring(1);
  auto src = std::make_unique<ringpaxos::LearnerCore>(jo);
  src->StartAt(cut);
  dyn->QueueSubscribe(std::move(src));
  d.RunFor(Millis(500));

  EXPECT_EQ(dyn->SubscribedGroups(), (std::vector<GroupId>{g0, g1}));
  EXPECT_EQ(dyn->subscription_changes(), 1u);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0], (std::pair<GroupId, bool>{g1, true}));
  EXPECT_EQ(join_cut, cut);
  EXPECT_GT(delivered[g1], 0u);
  // Never consumed below the announced delivery cut.
  EXPECT_GE(min_ring1_decide, cut);

  // Leave again; unaffected group 0 keeps delivering throughout.
  const std::uint64_t g0_before = delivered[g0];
  dyn->QueueUnsubscribe(g1);
  d.RunFor(Millis(500));
  EXPECT_EQ(dyn->SubscribedGroups(), (std::vector<GroupId>{g0}));
  EXPECT_EQ(dyn->subscription_changes(), 2u);
  EXPECT_GT(delivered[g0], g0_before);
}

TEST(DynamicSubscription, DiscardCountersAttributeToMessageGroup) {
  // Two groups multiplexed on one ring (Section IV-D): the filtered
  // learner discards group 8's messages. The registry counter must
  // attribute those discards to group 8 — the discarded MESSAGE's group
  // — not to the ring source's own group, while GroupStats.discarded
  // keeps the source-side (bandwidth-waste) attribution.
  DeploymentOptions opts;
  opts.n_rings = 1;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);

  auto add_learner = [&d](std::vector<GroupId> only) {
    sim::SimNode* node = nullptr;
    auto* learner = d.AddLearnerNode(
        {0}, [&](sim::SimNode& n, std::vector<LearnerOptions> groups) {
          node = &n;
          MergeLearner::Options mo;
          groups[0].subscribe_only = std::move(only);
          mo.groups = std::move(groups);
          mo.send_delivery_acks = true;
          return std::make_unique<MergeLearner>(std::move(mo));
        });
    return std::pair{learner, node};
  };
  auto [only7, node] = add_learner({7});
  add_learner({});  // acks group 8 so its proposer's window keeps moving

  ringpaxos::ProposerConfig pc;
  pc.max_outstanding = 4;
  pc.payload_size = 2000;
  d.AddProposer(0, pc, GroupId{7});
  d.AddProposer(0, pc, GroupId{8});
  d.Start();
  d.RunFor(Seconds(1));

  ASSERT_GT(only7->stats(0).discarded, 50u);
  MetricsRegistry& reg = node->metrics();
  EXPECT_EQ(reg.CounterValue("merge.g8.discarded"),
            only7->stats(0).discarded);
  EXPECT_EQ(reg.CounterValue("merge.g7.discarded"), 0u);
  // The ring source's own instrument stays clean: nothing of group
  // `ring(0).group` was discarded.
  EXPECT_EQ(reg.CounterValue("merge.g" + std::to_string(d.ring(0).group) +
                             ".discarded"),
            0u);
}

// ----------------------------------------- live split (tentpole b)

// A live split of group 0's upper half into ring 1's group: two
// session-deduping source replicas on ring 0, a target replica on ring
// 1, a holder-routed session-stamped client, and a RepartitionCoordinator
// that seals at `split_at`. Call Run() after scheduling any faults.
struct SplitScenario {
  static constexpr std::uint64_t kPlanId = 21;
  static constexpr std::uint64_t kSplitLo = 500000;
  static constexpr std::uint64_t kKeyMax = 999999;

  explicit SplitScenario(DeploymentOptions opts, Duration split_at)
      : d(opts), oracle(&suite) {
    const GroupId g0 = d.ring(0).group;
    const GroupId g1 = d.ring(1).group;
    client_holder.Install(
        RingConfiguration(1, {RouteFor(d.ring(0))}, {{0, kKeyMax, g0}}));

    // Two source replicas of the whole key space, session-deduping.
    std::vector<sim::SimNode*> source_nodes;
    for (int r = 0; r < 2; ++r) {
      sources.push_back(d.AddLearnerNode(
          {0}, [&](sim::SimNode& node, std::vector<LearnerOptions> groups) {
            source_nodes.push_back(&node);
            smr::ReplicaConfig rc;
            rc.partition = g0;
            rc.partition_ring = groups[0];
            rc.respond = (r == 0);
            rc.sessions = true;
            const int ridx =
                oracle.RegisterReplica("source" + std::to_string(r), g0);
            rc.on_session_apply = [this, ridx](std::uint64_t sid,
                                               std::uint64_t seq) {
              oracle.OnSessionApply(ridx, sid, seq);
            };
            return std::make_unique<smr::Replica>(rc);
          }));
    }

    // Target replica: bootstraps [kSplitLo, kKeyMax] from the sealed
    // handoff pulled over the chunked snapshot transfer.
    sim::SimNode* target_node = nullptr;
    target = d.AddLearnerNode(
        {1}, [&](sim::SimNode& node, std::vector<LearnerOptions> groups) {
          target_node = &node;
          smr::ReplicaConfig rc;
          rc.partition = g1;
          rc.range = {kSplitLo, kKeyMax};
          rc.partition_ring = groups[0];
          rc.respond = true;
          rc.sessions = true;
          rc.handoff_plan = kPlanId;
          rc.bootstrap_peers = {source_nodes[0]->self(), source_nodes[1]->self()};
          const int ridx = oracle.RegisterReplica("target", g1);
          rc.on_session_apply = [this, ridx](std::uint64_t sid,
                                             std::uint64_t seq) {
            oracle.OnSessionApply(ridx, sid, seq);
          };
          return std::make_unique<smr::Replica>(rc);
        });

    // Holder-routed, session-stamped client; completions feed the
    // no-loss side of the oracle.
    sim::SimNode* client_node = nullptr;
    {
      smr::KvClientConfig cc;
      cc.rings.push_back(d.ring(0));
      cc.window = 2;
      cc.holder = &client_holder;
      cc.session_id = 3;
      cc.on_complete = [this](std::uint64_t sid, std::uint64_t seq) {
        oracle.OnClientComplete(sid, seq);
      };
      auto cl = std::make_unique<smr::KvClient>(cc);
      client = cl.get();
      client_node = &d.AddClient(std::move(cl), {0, 1});
    }

    // The coordinator: seal into steady-state traffic, flip routing,
    // probe the target until the handoff lands. It hears ring 0's
    // heartbeats, so the seal follows the coordinator wherever it moves.
    {
      auto& node = d.net().AddNode();
      RepartitionConfig pc;
      pc.plan = ReconfigPlan::Split(kPlanId, g0, g1, kSplitLo, kKeyMax,
                                    d.ring(1).ring);
      pc.source_ring = d.ring(0);
      pc.next =
          RingConfiguration(2, {RouteFor(d.ring(0)), RouteFor(d.ring(1))},
                            {{0, kSplitLo - 1, g0}, {kSplitLo, kKeyMax, g1}});
      pc.target_replica = target_node->self();
      pc.notify = {client_node->self()};
      pc.start_delay = split_at;
      auto co = std::make_unique<RepartitionCoordinator>(pc);
      repart = co.get();
      node.BindProtocol(std::move(co));
      d.net().Subscribe(node.self(), d.ring(0).control_channel);
    }
  }

  void Run(Duration horizon) {
    d.Start();
    d.RunFor(horizon);
    oracle.Finish();
  }

  // The split's end-to-end claims.
  void ExpectDone() {
    EXPECT_TRUE(repart->done())
        << "repartition stuck in phase " << static_cast<int>(repart->phase());
    EXPECT_TRUE(suite.ok()) << suite.Report();
    EXPECT_GT(oracle.applies(), 100u);
    EXPECT_GT(oracle.completions(), 100u);
    // The seal was applied by both source replicas.
    EXPECT_EQ(sources[0]->seals(), 1u);
    EXPECT_EQ(sources[1]->seals(), 1u);
    // The target bootstrapped from the handoff and applied live traffic
    // in the moved range afterwards.
    EXPECT_TRUE(target->bootstrapped());
    EXPECT_GT(target->applied(), 0u);
    // The routing flip reached the client over the wire.
    ASSERT_NE(client_holder.Get(), nullptr);
    EXPECT_EQ(client_holder.version(), 2u);
    EXPECT_EQ(client_holder.Get()->GroupOfKey(kSplitLo), d.ring(1).group);
    EXPECT_EQ(client_holder.Get()->GroupOfKey(kSplitLo - 1), d.ring(0).group);
    EXPECT_GT(client->completed(), 100u);
  }

  SimDeployment d;
  check::OracleSuite suite;
  check::ReconfigOracle oracle;
  RingHolder client_holder;
  std::vector<smr::Replica*> sources;
  smr::Replica* target = nullptr;
  smr::KvClient* client = nullptr;
  RepartitionCoordinator* repart = nullptr;
};

DeploymentOptions TwoRings(int spares = 0) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.n_spares = spares;
  return opts;
}

TEST(Repartition, LiveSplitMovesRangeWithoutLossOrDuplication) {
  SplitScenario s(TwoRings(), Millis(300));
  s.Run(Seconds(3));
  s.ExpectDone();
}

TEST(Repartition, SplitCompletesAfterCoordinatorMovesToSpare) {
  // Ring 0 has 2 members and a spare. At 1 s the coordinator (member 0)
  // crashes for good while member 1 is paused for 500 ms, so the spare
  // is first to take over and member 1 rejoins under it. The seal,
  // submitted at 2 s, must follow the coordinator to the spare — which
  // is none of ring 0's initial members.
  SplitScenario s(TwoRings(/*spares=*/1), Seconds(2));
  sim::SimNode* m0 = s.d.acceptor_node(0, 0);
  sim::SimNode* m1 = s.d.acceptor_node(0, 1);
  auto& sched = s.d.net().scheduler();
  sched.At(TimePoint(Seconds(1).count()), [m0, m1] {
    m0->SetDown(true);
    m1->SetDown(true);
  });
  sched.At(TimePoint(Millis(1500).count()), [m1] { m1->SetDown(false); });
  s.Run(Seconds(5));
  EXPECT_TRUE(s.d.acceptor_node(0, 2)
                  ->protocol_as<ringpaxos::RingNode>()
                  ->is_coordinator())
      << "the spare did not take over ring 0";
  s.ExpectDone();
}

// A target is served the handoff of its own plan, never another one:
// the source seals plan A and then plan B before A's target starts, so
// the source's newest checkpoint is B's.
TEST(Repartition, HandoffIsFetchedByPlanId) {
  constexpr std::uint64_t kPlanA = 7;
  constexpr std::uint64_t kPlanB = 9;
  SimDeployment d(TwoRings());
  const GroupId g0 = d.ring(0).group;
  const GroupId g1 = d.ring(1).group;

  sim::SimNode* source_node = nullptr;
  auto* source = d.AddLearnerNode(
      {0}, [&](sim::SimNode& node, std::vector<LearnerOptions> groups) {
        source_node = &node;
        smr::ReplicaConfig rc;
        rc.partition = g0;
        rc.partition_ring = groups[0];
        return std::make_unique<smr::Replica>(rc);
      });
  smr::KvClientConfig cc;
  cc.partitioning = smr::Partitioning(1, 1000);
  cc.rings.push_back(d.ring(0));
  cc.window = 4;
  cc.query_ratio = 0;
  cc.delete_ratio = 0;
  auto& client_node = d.AddClient(std::make_unique<smr::KvClient>(cc), {0});

  // Plan A moves [500, 749] and plan B [750, 999], sealed after the
  // writes stop.
  auto add_seal = [&](std::uint64_t plan, smr::Key lo, smr::Key hi,
                      Duration at) {
    RepartitionConfig pc;
    pc.plan = ReconfigPlan::Split(plan, g0, g1, lo, hi, d.ring(1).ring);
    pc.source_ring = d.ring(0);
    pc.start_delay = at;
    auto& node = d.net().AddNode();
    node.BindProtocol(std::make_unique<RepartitionCoordinator>(pc));
    d.net().Subscribe(node.self(), d.ring(0).control_channel);
  };
  add_seal(kPlanA, 500, 749, Millis(1200));
  add_seal(kPlanB, 750, 999, Millis(1300));

  d.Start();
  d.RunFor(Seconds(1));
  client_node.SetDown(true);
  d.RunFor(Millis(100));
  const auto moved_a = source->store().Query(500, 749);
  ASSERT_GT(moved_a.size(), 100u);
  d.RunFor(Millis(400));
  ASSERT_EQ(source->seals(), 2u);

  sim::SimNode* target_node = nullptr;
  auto* target = d.AddLearnerNode(
      {1}, [&](sim::SimNode& node, std::vector<LearnerOptions> groups) {
        target_node = &node;
        smr::ReplicaConfig rc;
        rc.partition = g1;
        rc.range = {500, 749};
        rc.partition_ring = groups[0];
        rc.handoff_plan = kPlanA;
        rc.bootstrap_peers = {source_node->self()};
        return std::make_unique<smr::Replica>(rc);
      });
  target_node->Start();
  d.RunFor(Seconds(1));

  EXPECT_TRUE(target->bootstrapped());
  const auto installed = target->store().Query(0, ~0ULL);
  EXPECT_EQ(installed.size(), moved_a.size());
  EXPECT_TRUE(installed == moved_a) << "the target installed another plan";
}

// A source replica that late-joins after a split's seal bootstraps from
// a peer's snapshot, which carries the sealed range: it redirects later
// writes into the moved range like its peers, and serves the plan's
// handoff. The acceptors trim fast, so the joiner fast-forwards past
// the seal and cannot learn it from the ring.
TEST(Repartition, LateSourceReplicaRestoresSealedRanges) {
  constexpr std::uint64_t kPlan = 5;
  DeploymentOptions opts = TwoRings();
  opts.trim_keep = 200;
  SimDeployment d(opts);
  const GroupId g0 = d.ring(0).group;
  const GroupId g1 = d.ring(1).group;

  std::vector<NodeId> peers;
  auto add_source = [&](std::vector<NodeId> bootstrap_peers) {
    return d.AddLearnerNode(
        {0}, [&](sim::SimNode& node, std::vector<LearnerOptions> groups) {
          peers.push_back(node.self());
          smr::ReplicaConfig rc;
          rc.partition = g0;
          rc.partition_ring = groups[0];
          rc.bootstrap_peers = std::move(bootstrap_peers);
          return std::make_unique<smr::Replica>(rc);
        });
  };
  auto* source = add_source({});
  auto* source2 = add_source({});
  // Writes over [0, 999] on ring 0; a redirect to group 1 is refused,
  // since the client has no ring for it.
  auto add_writer = [&]() -> sim::SimNode& {
    smr::KvClientConfig cc;
    cc.partitioning = smr::Partitioning(1, 1000);
    cc.rings.push_back(d.ring(0));
    cc.window = 4;
    cc.query_ratio = 0;
    cc.delete_ratio = 0;
    return d.AddClient(std::make_unique<smr::KvClient>(cc), {0});
  };
  sim::SimNode& writer = add_writer();
  RepartitionConfig pc;
  pc.plan = ReconfigPlan::Split(kPlan, g0, g1, 500, 999, d.ring(1).ring);
  pc.source_ring = d.ring(0);
  pc.start_delay = Millis(1200);
  auto& coord = d.net().AddNode();
  coord.BindProtocol(std::make_unique<RepartitionCoordinator>(pc));
  d.net().Subscribe(coord.self(), d.ring(0).control_channel);

  d.Start();
  d.RunFor(Seconds(1));
  writer.SetDown(true);
  d.RunFor(Millis(100));
  const auto moved = source->store().Query(500, 999);
  ASSERT_GT(moved.size(), 100u);
  d.RunFor(Millis(400));
  ASSERT_EQ(source->seals(), 1u);
  ASSERT_EQ(source2->seals(), 1u);

  // The third source replica joins long after the seal was trimmed
  // away; its first delivery (the second writer's) starts its fetch.
  auto* late = add_source(peers);
  d.learner_node(2)->Start();
  sim::SimNode& writer2 = add_writer();
  writer2.Start();
  d.RunFor(Millis(500));
  writer2.SetDown(true);
  d.RunFor(Millis(500));

  ASSERT_TRUE(late->bootstrapped());
  EXPECT_EQ(late->seals(), 1u);
  EXPECT_GT(source->redirected(), 0u);
  EXPECT_GT(late->redirected(), 0u) << "the late joiner applied moved keys";
  EXPECT_EQ(late->store().Fingerprint(), source->store().Fingerprint());
  EXPECT_EQ(late->store().Fingerprint(), source2->store().Fingerprint());

  // The late joiner serves the plan's handoff by id.
  sim::SimNode* target_node = nullptr;
  auto* target = d.AddLearnerNode(
      {1}, [&](sim::SimNode& node, std::vector<LearnerOptions> groups) {
        target_node = &node;
        smr::ReplicaConfig rc;
        rc.partition = g1;
        rc.range = {500, 999};
        rc.partition_ring = groups[0];
        rc.handoff_plan = kPlan;
        rc.bootstrap_peers = {peers[2]};
        return std::make_unique<smr::Replica>(rc);
      });
  target_node->Start();
  d.RunFor(Seconds(1));
  EXPECT_TRUE(target->store().Query(0, ~0ULL) == moved)
      << "the handoff served by the late joiner differs";
  // Ring 1 trimmed everything since the routing flip long before this
  // target started, so it cannot show that it missed no write to the
  // moved range: having installed the handoff, it stops instead of
  // applying across the hole.
  EXPECT_TRUE(target->learner().stopped());
}

// ------------------------------------- hot membership swap (tentpole c)

// Submits a kSwap plan into the ring as an ordinary client value,
// retrying until the coordinator applies it (idempotent: once swap_out
// left the layout the plan no longer matches).
class SwapSubmitter final : public Protocol {
 public:
  SwapSubmitter(ringpaxos::RingConfig ring, ReconfigPlan plan, Duration at)
      : ring_(std::move(ring)), plan_(plan), at_(at) {}

  void OnStart(Env& env) override {
    core_.Seed(ring_.ring, ring_.ring_members[0]);
    env.SetTimer(at_, [this, &env] { Submit(env); });
  }
  void OnMessage(Env&, NodeId, const MessagePtr& m) override {
    core_.OnMessage(*m);
  }

 private:
  void Submit(Env& env) {
    SubmitSwap(env, core_, ring_, plan_);
    if (core_.last_seq() < 10) {
      env.SetTimer(Millis(100), [this, &env] { Submit(env); });
    }
  }

  ringpaxos::RingConfig ring_;
  ReconfigPlan plan_;
  Duration at_;
  ringpaxos::ClientCore core_;
};

TEST(Repartition, HotSwapReplacesRingMemberInLayout) {
  DeploymentOptions opts;
  opts.ring_size = 3;
  opts.n_spares = 1;
  SimDeployment d(opts);
  const NodeId out = d.ring(0).ring_members[2];
  const NodeId in = d.ring(0).spares[0];

  multiring::MergeLearner::Options mo;
  mo.send_delivery_acks = true;
  auto* learner = d.AddMergeLearner({0}, std::move(mo));
  ringpaxos::ProposerConfig pc;
  pc.max_outstanding = 4;
  d.AddProposer(0, pc);

  auto swap = std::make_unique<SwapSubmitter>(
      d.ring(0), ReconfigPlan::Swap(5, d.ring(0).ring, out, in), Millis(300));
  d.AddClient(std::move(swap), {0});

  d.Start();
  d.RunFor(Seconds(1));

  auto* coord = d.coordinator(0);
  ASSERT_TRUE(coord->is_coordinator());
  EXPECT_EQ(coord->swaps_applied(), 1u);
  const auto& layout = coord->current_layout();
  ASSERT_EQ(layout.size(), 3u);
  EXPECT_NE(std::find(layout.begin(), layout.end(), in), layout.end())
      << "swap-in did not join the layout";
  EXPECT_EQ(std::find(layout.begin(), layout.end(), out), layout.end())
      << "swap-out still in the layout";

  // The stream keeps flowing through the swapped layout.
  const std::uint64_t before = learner->total_delivered();
  d.RunFor(Seconds(1));
  EXPECT_GT(learner->total_delivered(), before + 100);
}

}  // namespace
}  // namespace mrp::reconfig
