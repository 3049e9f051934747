// Classic Paxos substrate tests: basic agreement, batching, message
// loss, proposer contention and the acceptor core's safety rules.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "multiring/merge_learner.h"
#include "paxos/acceptor_core.h"
#include "paxos/roles.h"
#include "paxos/storage.h"
#include "sim/network.h"

namespace mrp::paxos {
namespace {

using sim::NetConfig;
using sim::NodeSpec;
using sim::SimNetwork;

constexpr ChannelId kDecisions = 1;

struct Deployment {
  explicit Deployment(NetConfig cfg, int n_acceptors = 3, int n_proposers = 1,
                      int n_learners = 2)
      : net(cfg) {
    PaxosConfig pc;
    pc.decision_channel = kDecisions;
    // Node ids: proposers, then acceptors, then learners.
    for (int i = 0; i < n_proposers; ++i) {
      pc.proposers.push_back(static_cast<NodeId>(i));
    }
    for (int i = 0; i < n_proposers; ++i) {
      auto& n = net.AddNode();
      proposer_nodes.push_back(&n);
    }
    for (int i = 0; i < n_acceptors; ++i) {
      auto& n = net.AddNode();
      pc.acceptors.push_back(n.self());
      acceptor_nodes.push_back(&n);
    }
    for (std::size_t i = 0; i < proposer_nodes.size(); ++i) {
      auto p = std::make_unique<PaxosProposer>(pc, i);
      proposers.push_back(p.get());
      proposer_nodes[i]->BindProtocol(std::move(p));
    }
    for (auto* n : acceptor_nodes) {
      n->BindProtocol(std::make_unique<PaxosAcceptor>());
    }
    for (int i = 0; i < n_learners; ++i) {
      auto& n = net.AddNode();
      delivered.emplace_back();
      auto& log = delivered.back();
      // A learner of the one Paxos-ordered group: a merge learner of
      // one PaxosGroupSource.
      multiring::MergeLearner::Options mo;
      PaxosGroupSource::Options po;
      po.group = pc.group;
      po.proposers = pc.proposers;
      mo.sources.push_back(std::make_unique<PaxosGroupSource>(po));
      mo.on_decide = [&log](RingId, InstanceId inst, const Value& v) {
        for (const auto& m : v.msgs) log.push_back({inst, m.proposer, m.seq});
      };
      auto l = std::make_unique<multiring::MergeLearner>(std::move(mo));
      learners.push_back(l.get());
      n.BindProtocol(std::move(l));
      net.Subscribe(n.self(), kDecisions);
      learner_nodes.push_back(&n);
    }
    net.StartAll();
  }

  void Submit(std::size_t proposer_idx, std::uint64_t seq, std::uint32_t size = 100) {
    auto* node = proposer_nodes[proposer_idx];
    auto* prop = proposers[proposer_idx];
    node->Execute(Duration{0}, [this, node, prop, seq, size, proposer_idx] {
      ClientMsg m;
      m.proposer = node->self();
      m.seq = seq;
      m.sent_at = net.now();
      m.payload_size = size;
      (void)proposer_idx;
      prop->Submit(*node, std::move(m));
    });
  }

  struct Delivered {
    InstanceId instance;
    NodeId proposer;
    std::uint64_t seq;
    bool operator==(const Delivered&) const = default;
  };

  SimNetwork net;
  std::vector<sim::SimNode*> proposer_nodes;
  std::vector<sim::SimNode*> acceptor_nodes;
  std::vector<sim::SimNode*> learner_nodes;
  std::vector<PaxosProposer*> proposers;
  std::vector<multiring::MergeLearner*> learners;
  // deque: learner callbacks hold references to their logs, which must
  // stay stable as more learners are added.
  std::deque<std::vector<Delivered>> delivered;
};

TEST(Paxos, SingleProposerAllLearnersAgree) {
  Deployment d{NetConfig{}};
  for (int i = 0; i < 20; ++i) d.Submit(0, static_cast<std::uint64_t>(i));
  d.net.RunFor(Seconds(1));

  ASSERT_EQ(d.delivered.size(), 2u);
  EXPECT_EQ(d.delivered[0].size(), 20u);
  EXPECT_EQ(d.delivered[0], d.delivered[1]);
  // Messages submitted back-to-back are delivered in submission order
  // (single proposer, batching preserves FIFO).
  for (std::size_t i = 0; i < d.delivered[0].size(); ++i) {
    EXPECT_EQ(d.delivered[0][i].seq, i);
  }
}

TEST(Paxos, SurvivesMessageLoss) {
  NetConfig cfg;
  cfg.loss_probability = 0.05;
  cfg.seed = 21;
  Deployment d{cfg};
  for (int i = 0; i < 50; ++i) d.Submit(0, static_cast<std::uint64_t>(i));
  d.net.RunFor(Seconds(10));

  // All messages delivered at every learner (retries + learner recovery),
  // in the same total order, possibly with proposer-retry duplicates.
  ASSERT_GE(d.delivered[0].size(), 50u);
  EXPECT_EQ(d.delivered[0], d.delivered[1]);
  std::map<std::uint64_t, int> seen;
  for (const auto& e : d.delivered[0]) seen[e.seq]++;
  for (int i = 0; i < 50; ++i) {
    EXPECT_GE(seen[static_cast<std::uint64_t>(i)], 1) << "missing seq " << i;
  }
}

TEST(Paxos, CompetingProposersStillAgree) {
  Deployment d{NetConfig{}, /*acceptors=*/3, /*proposers=*/2};
  for (int i = 0; i < 10; ++i) {
    d.Submit(0, static_cast<std::uint64_t>(i));
    d.Submit(1, static_cast<std::uint64_t>(100 + i));
  }
  d.net.RunFor(Seconds(10));

  // Uniform agreement: identical delivery logs.
  EXPECT_EQ(d.delivered[0], d.delivered[1]);
  std::map<std::pair<NodeId, std::uint64_t>, int> seen;
  for (const auto& e : d.delivered[0]) seen[{e.proposer, e.seq}]++;
  for (int i = 0; i < 10; ++i) {
    EXPECT_GE((seen[{d.proposer_nodes[0]->self(), static_cast<std::uint64_t>(i)}]), 1);
    EXPECT_GE((seen[{d.proposer_nodes[1]->self(), static_cast<std::uint64_t>(100 + i)}]), 1);
  }
}

TEST(Paxos, MinorityAcceptorCrashToleranceAndMajorityLoss) {
  Deployment d{NetConfig{}, /*acceptors=*/5};
  d.acceptor_nodes[0]->SetDown(true);
  d.acceptor_nodes[1]->SetDown(true);
  for (int i = 0; i < 10; ++i) d.Submit(0, static_cast<std::uint64_t>(i));
  d.net.RunFor(Seconds(5));
  EXPECT_EQ(d.delivered[0].size(), 10u);

  // Now lose the majority: no further progress.
  d.acceptor_nodes[2]->SetDown(true);
  const auto count_before = d.delivered[0].size();
  for (int i = 10; i < 15; ++i) d.Submit(0, static_cast<std::uint64_t>(i));
  d.net.RunFor(Seconds(2));
  EXPECT_EQ(d.delivered[0].size(), count_before);

  // Recovery of one acceptor restores the majority and liveness.
  d.acceptor_nodes[2]->SetDown(false);
  d.net.RunFor(Seconds(10));
  std::map<std::uint64_t, int> seen;
  for (const auto& e : d.delivered[0]) seen[e.seq]++;
  for (int i = 0; i < 15; ++i) {
    EXPECT_GE(seen[static_cast<std::uint64_t>(i)], 1) << "missing seq " << i;
  }
}

// ---- AcceptorCore safety rules ----

TEST(AcceptorCore, PromisesMonotonic) {
  MemStorage st;
  AcceptorCore core(st);
  bool ok1 = false, ok2 = false, ok3 = false;
  core.HandlePhase1(0, 5, [&](AcceptorCore::PromiseResult r) { ok1 = r.promised; });
  core.HandlePhase1(0, 3, [&](AcceptorCore::PromiseResult r) { ok2 = r.promised; });
  core.HandlePhase1(0, 7, [&](AcceptorCore::PromiseResult r) { ok3 = r.promised; });
  EXPECT_TRUE(ok1);
  EXPECT_FALSE(ok2);  // lower round rejected
  EXPECT_TRUE(ok3);
}

TEST(AcceptorCore, RejectsPhase2BelowPromise) {
  MemStorage st;
  AcceptorCore core(st);
  core.HandlePhase1(0, 10, [](auto) {});
  bool accepted = true;
  core.HandlePhase2(0, 9, Value::Skip(1), [&](bool ok) { accepted = ok; });
  EXPECT_FALSE(accepted);
  core.HandlePhase2(0, 10, Value::Skip(1), [&](bool ok) { accepted = ok; });
  EXPECT_TRUE(accepted);
}

TEST(AcceptorCore, Phase1ReturnsAcceptedValue) {
  MemStorage st;
  AcceptorCore core(st);
  ClientMsg m;
  m.seq = 42;
  core.HandlePhase2(3, 2, Value::Batch({m}), [](bool) {});
  AcceptorCore::PromiseResult res;
  core.HandlePhase1(3, 5, [&](AcceptorCore::PromiseResult r) { res = std::move(r); });
  EXPECT_TRUE(res.promised);
  EXPECT_EQ(res.accepted_round, 2u);
  ASSERT_TRUE(res.accepted.has_value());
  ASSERT_EQ(res.accepted->msgs.size(), 1u);
  EXPECT_EQ(res.accepted->msgs[0].seq, 42u);
}

TEST(AcceptorCore, RangePromiseRaisesFloorAndReportsAccepted) {
  MemStorage st;
  AcceptorCore core(st);
  core.HandlePhase2(1, 1, Value::Skip(1), [](bool) {});
  core.HandlePhase2(5, 1, Value::Skip(2), [](bool) {});

  std::vector<InstanceId> reported;
  EXPECT_TRUE(core.HandlePhase1Range(2, 4, [&](InstanceId i, Round, const Value&) {
    reported.push_back(i);
  }));
  EXPECT_EQ(reported, (std::vector<InstanceId>{5}));

  // Lower-round range Phase 1 now rejected; Phase 2 below floor rejected
  // even for untouched instances.
  EXPECT_FALSE(core.HandlePhase1Range(0, 3, [](InstanceId, Round, const Value&) {}));
  bool accepted = true;
  core.HandlePhase2(100, 3, Value::Skip(1), [&](bool ok) { accepted = ok; });
  EXPECT_FALSE(accepted);
}

}  // namespace
}  // namespace mrp::paxos
