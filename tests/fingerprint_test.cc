// Fingerprint coverage (docs/MODEL_CHECKING.md): every protocol role the
// model checker can host exposes a Fingerprint() state digest. These
// tests pin the contract the explorer's visited-state table depends on:
//
//  * deterministic  — identically-constructed roles digest identically;
//  * state-sensitive— feeding a message that changes decision state
//                     changes the digest;
//  * timing-blind   — wall-clock-only differences (ClientMsg::sent_at
//                     and friends) do NOT change the digest, so states
//                     reached at different speeds can merge.
//
// This file is also the ledger the mrp_lint fingerprint-coverage rule
// checks against: exercising a role's Fingerprint() here marks it
// covered.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/env.h"
#include "multiring/merge_learner.h"
#include "paxos/messages.h"
#include "paxos/roles.h"
#include "reconfig/plan.h"
#include "reconfig/repartition.h"
#include "reconfig/ring_view.h"
#include "ringpaxos/learner.h"
#include "ringpaxos/messages.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"
#include "session/admission.h"
#include "session/lease.h"
#include "smr/client.h"
#include "smr/replica.h"
#include "workload/driver.h"

namespace mrp {
namespace {

// Minimal Env: records sends, holds timers without firing them.
class FakeEnv final : public Env {
 public:
  explicit FakeEnv(NodeId id = 1) : id_(id), rng_(42) {}

  NodeId self() const override { return id_; }
  TimePoint now() const override { return now_; }
  void Send(NodeId to, MessagePtr m) override {
    sent.emplace_back(to, std::move(m));
  }
  void Multicast(ChannelId ch, MessagePtr m) override {
    cast.emplace_back(ch, std::move(m));
  }
  TimerId SetTimer(Duration, std::function<void()> cb) override {
    timers.push_back(std::move(cb));
    return static_cast<TimerId>(timers.size());
  }
  void CancelTimer(TimerId) override {}
  Rng& rng() override { return rng_; }
  MetricsRegistry& metrics() override { return registry_; }

  void Advance(Duration d) { now_ += d; }

  std::vector<std::pair<NodeId, MessagePtr>> sent;
  std::vector<std::pair<ChannelId, MessagePtr>> cast;
  std::vector<std::function<void()>> timers;

 private:
  NodeId id_;
  TimePoint now_{0};
  Rng rng_;
  MetricsRegistry registry_;
};

paxos::ClientMsg Cmd(std::uint64_t seq, TimePoint sent_at = kTimeZero) {
  paxos::ClientMsg m;
  m.group = 0;
  m.proposer = 20;
  m.seq = seq;
  m.sent_at = sent_at;
  m.payload_size = 8;
  return m;
}

ringpaxos::RingConfig Ring() {
  ringpaxos::RingConfig cfg;
  cfg.ring = 0;
  cfg.group = 0;
  cfg.ring_members = {1, 2, 3};
  cfg.data_channel = 1;
  cfg.control_channel = 2;
  return cfg;
}

TEST(FingerprintTest, ClientMsgAndValueIgnoreTiming) {
  // sent_at is latency bookkeeping, not identity.
  EXPECT_EQ(Cmd(7).Fingerprint(), Cmd(7, Millis(30)).Fingerprint());
  EXPECT_NE(Cmd(7).Fingerprint(), Cmd(8).Fingerprint());
  const auto batch = paxos::Value::Batch({Cmd(7)});
  const auto batch_late = paxos::Value::Batch({Cmd(7, Millis(9))});
  EXPECT_EQ(batch.Fingerprint(), batch_late.Fingerprint());
  EXPECT_NE(batch.Fingerprint(), paxos::Value::Skip(3).Fingerprint());
}

TEST(FingerprintTest, PaxosAcceptor) {
  paxos::PaxosAcceptor a, b;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  FakeEnv env(2);
  a.OnMessage(env, 1, MakeMessage<paxos::Phase1A>(0, 5));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());  // promise is decision state
  b.OnMessage(env, 1, MakeMessage<paxos::Phase1A>(0, 5));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(FingerprintTest, PaxosProposerAndGroupSource) {
  paxos::PaxosConfig pc;
  pc.proposers = {1};
  pc.acceptors = {2, 3, 4};
  pc.decision_channel = 9;
  paxos::PaxosProposer p(pc, 0), q(pc, 0);
  EXPECT_EQ(p.Fingerprint(), q.Fingerprint());
  FakeEnv env(1);
  p.Submit(env, Cmd(1));
  EXPECT_NE(p.Fingerprint(), q.Fingerprint());

  // The classic-Paxos learner.
  const paxos::PaxosGroupSource::Options po;
  paxos::PaxosGroupSource l(po), m(po);
  EXPECT_EQ(l.Fingerprint(), m.Fingerprint());
  l.OnMessage(env, 2,
              MakeMessage<paxos::DecisionMsg>(0, paxos::Value::Batch({Cmd(1)})));
  EXPECT_NE(l.Fingerprint(), m.Fingerprint());
}

TEST(FingerprintTest, RingNode) {
  const auto cfg = Ring();
  ringpaxos::RingNode a(cfg), b(cfg);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  FakeEnv env(1);
  a.OnStart(env);  // node 1 owns round 0: becomes candidate, self-promises
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  FakeEnv env2(1);
  b.OnStart(env2);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(FingerprintTest, LearnerCoreAndOneRingMergeLearner) {
  // A single-ring learner is a MergeLearner of one ring.
  ringpaxos::LearnerOptions lo;
  lo.ring = Ring();
  auto make_learner = [&lo] {
    multiring::MergeLearner::Options mo;
    mo.groups.push_back(lo);
    return std::make_unique<multiring::MergeLearner>(std::move(mo));
  };
  auto a = make_learner();
  auto b = make_learner();
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());

  // LearnerCore digests cached P2As (decision state ahead of delivery).
  ringpaxos::LearnerCore core(lo);
  const std::uint64_t fresh = core.Fingerprint();
  FakeEnv env(10);
  core.OnMessage(env, 1,
                 MakeMessage<ringpaxos::P2A>(0, 0, 0, 1,
                                             paxos::Value::Batch({Cmd(1)}),
                                             std::vector<ringpaxos::Decided>{},
                                             std::vector<NodeId>{1, 2, 3}));
  EXPECT_NE(core.Fingerprint(), fresh);
  a->OnMessage(env, 1,
               MakeMessage<ringpaxos::DecisionMsg>(
                   0, std::vector<ringpaxos::Decided>{{0, 1}}));
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
}

TEST(FingerprintTest, RingProposer) {
  ringpaxos::ProposerConfig pc;
  pc.ring = 0;
  pc.group = 0;
  pc.coordinator = 1;
  ringpaxos::Proposer a(pc), b(pc);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  FakeEnv env(20);
  // A control-channel heartbeat from a new coordinator retargets the
  // proposer — tracked state, so the digest moves.
  a.OnMessage(env, 2, MakeMessage<ringpaxos::Heartbeat>(0, 1, 2));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(FingerprintTest, GroupSourcesAndMergeLearner) {
  ringpaxos::LearnerOptions lo;
  lo.ring = Ring();
  ringpaxos::LearnerCore src(lo), src2(lo);
  EXPECT_EQ(src.Fingerprint(), src2.Fingerprint());
  FakeEnv env(10);
  src.OnMessage(env, 1,
                MakeMessage<ringpaxos::P2A>(0, 0, 0, 1,
                                            paxos::Value::Batch({Cmd(1)}),
                                            std::vector<ringpaxos::Decided>{},
                                            std::vector<NodeId>{1, 2, 3}));
  EXPECT_NE(src.Fingerprint(), src2.Fingerprint());

  paxos::PaxosGroupSource::Options po;
  po.group = 0;
  paxos::PaxosGroupSource ps(po), ps2(po);
  EXPECT_EQ(ps.Fingerprint(), ps2.Fingerprint());
  ps.OnMessage(env, 1,
               MakeMessage<paxos::DecisionMsg>(0, paxos::Value::Batch({Cmd(1)}),
                                               0));
  EXPECT_NE(ps.Fingerprint(), ps2.Fingerprint());

  auto make_merge = [] {
    multiring::MergeLearner::Options mo;
    ringpaxos::LearnerOptions glo;
    glo.ring = Ring();
    mo.groups.push_back(glo);
    return std::make_unique<multiring::MergeLearner>(std::move(mo));
  };
  auto ml = make_merge();
  auto ml2 = make_merge();
  EXPECT_EQ(ml->Fingerprint(), ml2->Fingerprint());
  ml->OnMessage(env, 1,
                MakeMessage<ringpaxos::P2A>(0, 0, 0, 1,
                                            paxos::Value::Batch({Cmd(1)}),
                                            std::vector<ringpaxos::Decided>{},
                                            std::vector<NodeId>{1, 2, 3}));
  ml->OnMessage(env, 1,
                MakeMessage<ringpaxos::DecisionMsg>(
                    0, std::vector<ringpaxos::Decided>{{0, 1}}));
  EXPECT_NE(ml->Fingerprint(), ml2->Fingerprint());
}

TEST(FingerprintTest, SmrReplica) {
  auto make_replica = [] {
    smr::ReplicaConfig rc;
    rc.partition_ring.ring = Ring();
    return std::make_unique<smr::Replica>(rc);
  };
  auto a = make_replica();
  auto b = make_replica();
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
  FakeEnv env(10);
  a->OnStart(env);
  a->OnMessage(env, 1,
               MakeMessage<ringpaxos::P2A>(0, 0, 0, 1,
                                           paxos::Value::Batch({Cmd(1)}),
                                           std::vector<ringpaxos::Decided>{},
                                           std::vector<NodeId>{1, 2, 3}));
  a->OnMessage(env, 1,
               MakeMessage<ringpaxos::DecisionMsg>(
                   0, std::vector<ringpaxos::Decided>{{0, 1}}));
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
}

TEST(FingerprintTest, SessionRoles) {
  // smr::KvClient with a session: opening the session (first timer) is
  // state, and so is a coordinator hint moved by a heartbeat.
  smr::KvClientConfig kc;
  kc.rings = {Ring()};
  kc.session_id = 1;
  kc.start_jitter = Duration{0};
  smr::KvClient a(kc), b(kc);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  FakeEnv env(20), env2(20);
  a.OnStart(env);
  ASSERT_FALSE(env.timers.empty());
  env.timers.front()();  // fire the open timer
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b.OnStart(env2);
  env2.timers.front()();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  a.OnMessage(env, 3, MakeMessage<ringpaxos::Heartbeat>(0, 4, 3));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());

  // session::LeaseGrantor: an observed decision advances the frontier.
  session::LeaseGrantorConfig lc;
  lc.ring = 0;
  lc.group = 0;
  lc.holder = 9;
  session::LeaseGrantor g(lc), h(lc);
  EXPECT_EQ(g.Fingerprint(), h.Fingerprint());
  FakeEnv genv(5);
  g.OnMessage(genv, 1,
              MakeMessage<ringpaxos::DecisionMsg>(
                  0, std::vector<ringpaxos::Decided>{{4, 1}}));
  EXPECT_NE(g.Fingerprint(), h.Fingerprint());

  // session::Gateway: an admitted submission is counted state.
  session::GatewayConfig gc;
  gc.ring = 0;
  gc.coordinator = 2;
  session::Gateway gw(gc), gw2(gc);
  EXPECT_EQ(gw.Fingerprint(), gw2.Fingerprint());
  FakeEnv wenv(7);
  gw.OnStart(wenv);
  gw2.OnStart(wenv);
  gw.OnMessage(wenv, 3, MakeMessage<ringpaxos::Submit>(0, Cmd(1)));
  EXPECT_NE(gw.Fingerprint(), gw2.Fingerprint());
}

TEST(FingerprintTest, ReconfigRoles) {
  // reconfig::RingConfiguration / reconfig::RingHolder: the routing
  // view's version, routes and ranges are state; an install changes the
  // holder's digest, a rejected (stale) one does not.
  reconfig::GroupRoute route;
  route.group = 0;
  route.ring = 0;
  route.coordinator = 1;
  route.ring_members = {1, 2};
  reconfig::RingConfiguration v1(1, {route}, {{0, 999, 0}});
  reconfig::RingConfiguration v1b(1, {route}, {{0, 999, 0}});
  EXPECT_EQ(v1.Fingerprint(), v1b.Fingerprint());
  reconfig::RingConfiguration v2(2, {route}, {{0, 999, 0}});
  EXPECT_NE(v1.Fingerprint(), v2.Fingerprint());

  reconfig::RingHolder ha, hb;
  EXPECT_EQ(ha.Fingerprint(), hb.Fingerprint());
  ha.Install(v1);
  EXPECT_NE(ha.Fingerprint(), hb.Fingerprint());
  hb.Install(v1b);
  EXPECT_EQ(ha.Fingerprint(), hb.Fingerprint());
  ha.Install(v1);  // stale: rejected, digest unchanged
  EXPECT_EQ(ha.Fingerprint(), hb.Fingerprint());

  // reconfig::RepartitionCoordinator: beginning the plan (phase move to
  // kSealing plus the first seal submission) is state.
  reconfig::RepartitionConfig rc;
  rc.plan = reconfig::ReconfigPlan::Split(21, 0, 1, 500, 999, 1);
  rc.source_ring = Ring();
  rc.next = v2;
  reconfig::RepartitionCoordinator a(rc), b(rc);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  FakeEnv env(30);
  a.OnStart(env);
  ASSERT_FALSE(env.timers.empty());
  env.timers.front()();  // start delay elapses: Begin() seals
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(FingerprintTest, WorkloadDriver) {
  // workload::WorkloadDriver: session cursors, arrival phases and the
  // coordinator view are state; delivery timing (histograms) is not.
  workload::DriverConfig cfg;
  cfg.rings = {Ring()};
  cfg.mix = workload::DefaultMix();
  cfg.start_jitter = Duration{0};
  workload::WorkloadDriver a(cfg), b(cfg);
  FakeEnv env(40), env2(40);
  a.OnStart(env);
  b.OnStart(env2);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  ASSERT_FALSE(env.timers.empty());
  env.timers.front()();  // first arrival fires: seq cursors advance
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  env2.timers.front()();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  // A coordinator handover observed via heartbeat is state.
  a.OnMessage(env, 3, MakeMessage<ringpaxos::Heartbeat>(0, 7, 2));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b.OnMessage(env2, 3, MakeMessage<ringpaxos::Heartbeat>(0, 7, 2));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  // Delivery accounting must not perturb the digest (timing-blind).
  paxos::ClientMsg m = Cmd((1ULL << 48) | 1);
  m.proposer = 40;
  a.RecordDelivery(Millis(5), m);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

}  // namespace
}  // namespace mrp
