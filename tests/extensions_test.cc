// Tests for the paper's extensions (Sections IV-C, IV-D, VII): spare
// acceptors shared across rings via the ring dispatcher, several groups
// mapped to one ring with learner-side filtering, and Multi-Ring
// composition over plain Paxos as the per-group ordering protocol.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "multiring/merge_learner.h"
#include "multiring/ring_dispatch.h"
#include "multiring/sim_deployment.h"
#include "paxos/roles.h"

namespace mrp::multiring {
namespace {

using paxos::PaxosGroupSource;
using ringpaxos::ProposerConfig;
using ringpaxos::RingConfig;
using ringpaxos::RingNode;

// ---------------------------------------------- shared spare (IV-C)

TEST(SharedSpare, OneNodeServesAsSpareForTwoRings) {
  sim::SimNetwork net;

  // Rings 0 and 1, two members each, sharing one spare node.
  std::vector<RingConfig> rings(2);
  std::vector<std::vector<sim::SimNode*>> members(2);
  auto& spare_node = net.AddNode();
  for (int r = 0; r < 2; ++r) {
    rings[r].ring = static_cast<RingId>(r);
    rings[r].group = static_cast<GroupId>(r);
    rings[r].data_channel = DeploymentSpec::data_channel(r);
    rings[r].control_channel = DeploymentSpec::control_channel(r);
    rings[r].lambda_per_sec = 0;
    rings[r].suspect_after = Millis(50);
    for (int a = 0; a < 2; ++a) {
      auto& node = net.AddNode();
      rings[r].ring_members.push_back(node.self());
      members[r].push_back(&node);
    }
    rings[r].spares.push_back(spare_node.self());
  }
  auto dispatch = std::make_unique<RingDispatch>();
  for (int r = 0; r < 2; ++r) {
    dispatch->AddRing(rings[r].ring, std::make_unique<RingNode>(rings[r]));
    net.Subscribe(spare_node.self(), rings[r].data_channel);
    net.Subscribe(spare_node.self(), rings[r].control_channel);
  }
  auto* dispatch_raw = dispatch.get();
  spare_node.BindProtocol(std::move(dispatch));
  for (int r = 0; r < 2; ++r) {
    for (auto* node : members[r]) {
      node->BindProtocol(std::make_unique<RingNode>(rings[r]));
      net.Subscribe(node->self(), rings[r].data_channel);
      net.Subscribe(node->self(), rings[r].control_channel);
    }
  }

  // One learner + one windowed proposer per ring.
  std::vector<std::uint64_t> delivered(2, 0);
  for (int r = 0; r < 2; ++r) {
    auto& lnode = net.AddNode();
    MergeLearner::Options mo;
    ringpaxos::LearnerOptions lo;
    lo.ring = rings[r];
    mo.groups.push_back(std::move(lo));
    mo.send_delivery_acks = true;
    auto& count = delivered[static_cast<std::size_t>(r)];
    mo.on_deliver = [&count](GroupId, const paxos::ClientMsg&) { ++count; };
    lnode.BindProtocol(std::make_unique<MergeLearner>(std::move(mo)));
    net.Subscribe(lnode.self(), rings[r].data_channel);
    net.Subscribe(lnode.self(), rings[r].control_channel);

    sim::NodeSpec spec;
    spec.infinite_cpu = true;
    auto& pnode = net.AddNode(spec);
    ProposerConfig pc;
    pc.ring = rings[r].ring;
    pc.group = rings[r].group;
    pc.coordinator = rings[r].ring_members[0];
    pc.max_outstanding = 4;
    pc.payload_size = 2000;
    pnode.BindProtocol(std::make_unique<ringpaxos::Proposer>(pc));
    net.Subscribe(pnode.self(), rings[r].control_channel);
  }

  net.StartAll();
  net.RunFor(Seconds(1));
  const auto before0 = delivered[0];
  const auto before1 = delivered[1];
  ASSERT_GT(before0, 50u);
  ASSERT_GT(before1, 50u);

  // Kill BOTH rings' second acceptors: each ring must recruit the SAME
  // shared spare, which then serves two rings simultaneously through the
  // dispatcher.
  members[0][1]->SetDown(true);
  members[1][1]->SetDown(true);
  net.RunFor(Seconds(2));

  EXPECT_GT(delivered[0], before0 + 50) << "ring 0 did not recover via spare";
  EXPECT_GT(delivered[1], before1 + 50) << "ring 1 did not recover via spare";
  // The spare's protocols saw traffic for both rings.
  auto* rn0 = dispatch_raw->ring_protocol<RingNode>(0);
  auto* rn1 = dispatch_raw->ring_protocol<RingNode>(1);
  ASSERT_NE(rn0, nullptr);
  ASSERT_NE(rn1, nullptr);
  EXPECT_GT(rn0->round(), 0u);
  EXPECT_GT(rn1->round(), 0u);
}

// ------------------------------------- many groups per ring (IV-D)

TEST(GroupMapping, TwoGroupsOnOneRingWithSubscriptionFilter) {
  DeploymentOptions opts;
  opts.n_rings = 1;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);

  // Learner A subscribes only to group 7; learner B to both 7 and 8.
  auto add_learner = [&](std::vector<GroupId> only) {
    return d.AddLearnerNode(
        {0}, [&](sim::SimNode&, std::vector<ringpaxos::LearnerOptions> groups) {
          MergeLearner::Options mo;
          groups[0].subscribe_only = std::move(only);
          mo.groups = std::move(groups);
          mo.send_delivery_acks = true;
          return std::make_unique<MergeLearner>(std::move(mo));
        });
  };
  auto* only7 = add_learner({7});
  auto* both = add_learner({});

  ProposerConfig pc;
  pc.max_outstanding = 4;
  pc.payload_size = 2000;
  d.AddProposer(0, pc, GroupId{7});
  d.AddProposer(0, pc, GroupId{8});
  d.Start();
  d.RunFor(Seconds(1));

  // The filtered learner delivered group 7 only, but paid bandwidth for
  // group 8 (discarded counts it).
  EXPECT_GT(only7->stats(0).delivered.total_count(), 50u);
  EXPECT_GT(only7->stats(0).discarded, 50u);
  EXPECT_EQ(both->stats(0).discarded, 0u);
  EXPECT_NEAR(static_cast<double>(both->stats(0).delivered.total_count()),
              static_cast<double>(only7->stats(0).delivered.total_count() +
                                  only7->stats(0).discarded),
              20.0);
}

// -------------------------- Multi-Ring over plain Paxos (Section VII)

struct PaxosBackedGroup {
  std::vector<sim::SimNode*> nodes;
  paxos::PaxosProposer* proposer = nullptr;
  sim::SimNode* proposer_node = nullptr;
};

PaxosBackedGroup AddPaxosGroup(sim::SimNetwork& net, GroupId group,
                               ChannelId decisions, double lambda) {
  PaxosBackedGroup g;
  paxos::PaxosConfig pc;
  pc.decision_channel = decisions;
  pc.group = group;
  pc.lambda_per_sec = lambda;
  pc.delta = Millis(1);
  auto& pnode = net.AddNode();
  pc.proposers.push_back(pnode.self());
  for (int i = 0; i < 3; ++i) {
    auto& anode = net.AddNode();
    pc.acceptors.push_back(anode.self());
    g.nodes.push_back(&anode);
  }
  auto prop = std::make_unique<paxos::PaxosProposer>(pc, 0);
  g.proposer = prop.get();
  g.proposer_node = &pnode;
  pnode.BindProtocol(std::move(prop));
  for (auto* anode : g.nodes) {
    anode->BindProtocol(std::make_unique<paxos::PaxosAcceptor>());
  }
  return g;
}

TEST(PaxosBackedGroups, MergeAcrossPlainPaxosGroups) {
  sim::SimNetwork net;
  auto g0 = AddPaxosGroup(net, 0, /*decisions=*/50, /*lambda=*/2000);
  auto g1 = AddPaxosGroup(net, 1, /*decisions=*/51, /*lambda=*/2000);

  auto& lnode = net.AddNode();
  MergeLearner::Options mo;
  std::vector<std::pair<GroupId, std::uint64_t>> log;
  mo.on_deliver = [&log](GroupId g, const paxos::ClientMsg& m) {
    log.emplace_back(g, m.seq);
  };
  {
    PaxosGroupSource::Options po;
    po.group = 0;
    po.proposers = {g0.proposer_node->self()};
    mo.sources.push_back(std::make_unique<PaxosGroupSource>(po));
    po.group = 1;
    po.proposers = {g1.proposer_node->self()};
    mo.sources.push_back(std::make_unique<PaxosGroupSource>(po));
  }
  auto learner = std::make_unique<MergeLearner>(std::move(mo));
  auto* learner_raw = learner.get();
  lnode.BindProtocol(std::move(learner));
  net.Subscribe(lnode.self(), 50);
  net.Subscribe(lnode.self(), 51);

  net.StartAll();
  // Drive both groups: submit through the proposers directly.
  for (int i = 0; i < 40; ++i) {
    for (auto* g : {&g0, &g1}) {
      auto* node = g->proposer_node;
      auto* prop = g->proposer;
      node->Execute(Duration{0}, [node, prop, i] {
        paxos::ClientMsg m;
        m.group = prop == nullptr ? 0 : 0;  // group carried by decision tag
        m.proposer = node->self();
        m.seq = static_cast<std::uint64_t>(i + 1);
        m.sent_at = node->now();
        m.payload_size = 500;
        prop->Submit(*node, std::move(m));
      });
    }
    net.RunFor(Millis(5));
  }
  net.RunFor(Seconds(1));

  // Both groups delivered, merged deterministically, skips flowing.
  ASSERT_EQ(learner_raw->group_count(), 2u);
  EXPECT_EQ(learner_raw->stats(0).delivered.total_count(), 40u);
  EXPECT_EQ(learner_raw->stats(1).delivered.total_count(), 40u);
  EXPECT_GT(learner_raw->stats(0).skipped_logical, 500u);
  // Per-group FIFO preserved through the merge.
  std::map<GroupId, std::uint64_t> last;
  for (const auto& [g, seq] : log) {
    EXPECT_EQ(seq, last[g] + 1);
    last[g] = seq;
  }
}

TEST(PaxosBackedGroups, MixedSubstrates) {
  // Group 0 ordered by Ring Paxos, group 1 by plain Paxos, one merge
  // learner across both: the Section VII conjecture end-to-end.
  DeploymentOptions opts;
  opts.n_rings = 1;  // ring for group 0
  opts.lambda_per_sec = 2000;
  SimDeployment d(opts);
  auto g1 = AddPaxosGroup(d.net(), 1, /*decisions=*/60, /*lambda=*/2000);

  MergeLearner::Options mo;
  PaxosGroupSource::Options po;
  po.group = 1;
  po.proposers = {g1.proposer_node->self()};
  mo.sources.push_back(std::make_unique<PaxosGroupSource>(po));
  mo.send_delivery_acks = true;
  auto* learner_raw = d.AddLearnerNode(
      {0}, [&](sim::SimNode& lnode,
               std::vector<ringpaxos::LearnerOptions> groups) {
        d.net().Subscribe(lnode.self(), 60);  // the Paxos group's channel
        mo.groups = std::move(groups);
        return std::make_unique<MergeLearner>(std::move(mo));
      });

  ProposerConfig rpc;
  rpc.max_outstanding = 2;
  rpc.payload_size = 2000;
  d.AddProposer(0, rpc);
  d.Start();

  for (int i = 0; i < 30; ++i) {
    auto* node = g1.proposer_node;
    auto* prop = g1.proposer;
    node->Execute(Duration{0}, [node, prop, i] {
      paxos::ClientMsg m;
      m.proposer = node->self();
      m.seq = static_cast<std::uint64_t>(i + 1);
      m.sent_at = node->now();
      m.payload_size = 500;
      prop->Submit(*node, std::move(m));
    });
    d.net().RunFor(Millis(5));
  }
  d.RunFor(Seconds(1));

  EXPECT_GT(learner_raw->stats(0).delivered.total_count(), 100u);  // ring group
  EXPECT_EQ(learner_raw->stats(1).delivered.total_count(), 30u);   // paxos group
  EXPECT_FALSE(learner_raw->halted());
}

}  // namespace
}  // namespace mrp::multiring

#include "multiring/lcr_group.h"

namespace mrp::multiring {
namespace {

TEST(LcrBackedGroups, TripleSubstrateMerge) {
  // The Section VII conjecture, maximal form: one merge learner over
  // THREE groups ordered by three different atomic broadcast protocols —
  // Ring Paxos (group 0), plain Paxos (group 1) and LCR (group 2).
  DeploymentOptions opts;
  opts.n_rings = 1;  // Ring Paxos orders group 0
  opts.lambda_per_sec = 2000;
  SimDeployment d(opts);

  // Plain Paxos group 1.
  auto g1 = AddPaxosGroup(d.net(), 1, /*decisions=*/60, /*lambda=*/2000);

  // LCR group 2: the learner node itself is a ring member, plus two
  // dedicated members.
  auto& lnode = d.net().AddNode();
  baselines::LcrConfig lcr;
  lcr.group = 2;
  lcr.lambda_per_sec = 2000;
  std::vector<sim::SimNode*> lcr_members;
  lcr.ring.push_back(lnode.self());  // the learner participates
  for (int i = 0; i < 2; ++i) {
    auto& node = d.net().AddNode();
    lcr.ring.push_back(node.self());
    lcr_members.push_back(&node);
  }
  for (auto* node : lcr_members) {
    node->BindProtocol(std::make_unique<baselines::LcrNode>(lcr));
  }

  MergeLearner::Options mo;
  std::vector<std::pair<GroupId, std::uint64_t>> log;
  mo.on_deliver = [&log](GroupId g, const paxos::ClientMsg& m) {
    log.emplace_back(g, m.seq);
  };
  mo.send_delivery_acks = true;
  {
    ringpaxos::LearnerOptions lo;
    lo.ring = d.ring(0);
    mo.groups.push_back(lo);
    PaxosGroupSource::Options po;
    po.group = 1;
    po.proposers = {g1.proposer_node->self()};
    mo.sources.push_back(std::make_unique<PaxosGroupSource>(po));
    mo.sources.push_back(std::make_unique<LcrGroupSource>(lcr));
  }
  auto learner = std::make_unique<MergeLearner>(std::move(mo));
  auto* learner_raw = learner.get();
  lnode.BindProtocol(std::move(learner));
  d.net().Subscribe(lnode.self(), d.ring(0).data_channel);
  d.net().Subscribe(lnode.self(), d.ring(0).control_channel);
  d.net().Subscribe(lnode.self(), 60);

  // Workloads: Ring Paxos client, Paxos submissions, LCR submissions
  // (to a dedicated member).
  ringpaxos::ProposerConfig rpc;
  rpc.max_outstanding = 2;
  rpc.payload_size = 2000;
  d.AddProposer(0, rpc);
  d.Start();
  for (int i = 0; i < 30; ++i) {
    auto* pnode = g1.proposer_node;
    auto* prop = g1.proposer;
    pnode->Execute(Duration{0}, [pnode, prop, i] {
      paxos::ClientMsg m;
      m.proposer = pnode->self();
      m.seq = static_cast<std::uint64_t>(i + 1);
      m.sent_at = pnode->now();
      m.payload_size = 300;
      prop->Submit(*pnode, std::move(m));
    });
    auto* member = lcr_members[0];
    const auto member_id = member->self();
    member->Execute(Duration{0}, [member, member_id, i] {
      paxos::ClientMsg m;
      m.proposer = member_id;
      m.seq = static_cast<std::uint64_t>(i + 1);
      m.sent_at = member->now();
      m.payload_size = 300;
      member->protocol_as<baselines::LcrNode>()->BroadcastValue(
          *member, paxos::Value::Batch({m}));
    });
    d.net().RunFor(Millis(5));
  }
  d.RunFor(Seconds(1));

  ASSERT_EQ(learner_raw->group_count(), 3u);
  EXPECT_GT(learner_raw->stats(0).delivered.total_count(), 100u);  // ring paxos
  EXPECT_EQ(learner_raw->stats(1).delivered.total_count(), 30u);   // plain paxos
  EXPECT_EQ(learner_raw->stats(2).delivered.total_count(), 30u);   // lcr
  EXPECT_FALSE(learner_raw->halted());
  // FIFO preserved per group through the merge.
  std::map<GroupId, std::uint64_t> last;
  for (const auto& [g, seq] : log) {
    if (g == 0) continue;  // ring paxos seqs from the closed-loop client
    EXPECT_EQ(seq, last[g] + 1) << "group " << g;
    last[g] = seq;
  }
}

}  // namespace
}  // namespace mrp::multiring
