// Session control plane tests (docs/SESSIONS.md): exactly-once dedup
// through the SessionTable (including across the checkpoint/restore
// path), lease-local reads with expiry fallback, admission-control
// shed-and-retry convergence, and codec round-trips for every session
// wire message.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "multiring/sim_deployment.h"
#include "net/codec.h"
#include "session/admission.h"
#include "session/lease.h"
#include "session/messages.h"
#include "session/session_table.h"
#include "smr/client.h"
#include "smr/replica.h"

namespace mrp::session {
namespace {

using multiring::DeploymentOptions;
using multiring::SimDeployment;

// ---- SessionTable -----------------------------------------------------

TEST(SessionTable, DedupBasics) {
  SessionTable t;
  EXPECT_EQ(t.Check(1, 1), SessionTable::Admit::kUnknown);
  t.Open(1);
  EXPECT_TRUE(t.IsOpen(1));
  EXPECT_EQ(t.Check(1, 1), SessionTable::Admit::kApply);
  t.Record(1, 1, true, {});
  EXPECT_EQ(t.Check(1, 1), SessionTable::Admit::kDuplicate);
  EXPECT_EQ(t.Check(1, 2), SessionTable::Admit::kApply);
  // Unstamped ops inside a session always execute.
  EXPECT_EQ(t.Check(1, 0), SessionTable::Admit::kApply);
  // Reopening is idempotent: the dedup state survives.
  t.Open(1);
  EXPECT_EQ(t.Check(1, 1), SessionTable::Admit::kDuplicate);
  t.Close(1);
  EXPECT_EQ(t.Check(1, 1), SessionTable::Admit::kUnknown);
}

TEST(SessionTable, OutOfOrderWatermark) {
  // The client pipelines a window, so seqnos decide out of order: the
  // low watermark must only advance across a contiguous prefix.
  SessionTable t;
  t.Open(7);
  t.Record(7, 2, true, {});
  t.Record(7, 3, true, {});
  t.Record(7, 5, true, {});
  EXPECT_EQ(t.Check(7, 1), SessionTable::Admit::kApply);
  EXPECT_EQ(t.Check(7, 2), SessionTable::Admit::kDuplicate);
  EXPECT_EQ(t.Check(7, 4), SessionTable::Admit::kApply);
  EXPECT_EQ(t.Check(7, 5), SessionTable::Admit::kDuplicate);
  t.Record(7, 1, true, {});  // closes the gap: low advances past 3
  EXPECT_EQ(t.Check(7, 2), SessionTable::Admit::kDuplicate);
  EXPECT_EQ(t.Check(7, 3), SessionTable::Admit::kDuplicate);
  EXPECT_EQ(t.Check(7, 4), SessionTable::Admit::kApply);
}

TEST(SessionTable, ResponseCacheEviction) {
  SessionTable t(/*response_cache=*/2);
  t.Open(1);
  t.Record(1, 1, true, {{10, "a"}});
  t.Record(1, 2, true, {{20, "b"}});
  t.Record(1, 3, false, {});
  // Oldest response evicted, but the dedup verdict is unaffected.
  EXPECT_EQ(t.Response(1, 1), nullptr);
  EXPECT_EQ(t.Check(1, 1), SessionTable::Admit::kDuplicate);
  const SessionTable::Cached* c2 = t.Response(1, 2);
  ASSERT_NE(c2, nullptr);
  EXPECT_TRUE(c2->ok);
  ASSERT_EQ(c2->rows.size(), 1u);
  EXPECT_EQ(c2->rows[0].first, 20u);
  const SessionTable::Cached* c3 = t.Response(1, 3);
  ASSERT_NE(c3, nullptr);
  EXPECT_FALSE(c3->ok);
}

TEST(SessionTable, SerializeRoundTrip) {
  SessionTable a;
  a.Open(1);
  a.Open(9);
  a.Record(1, 1, true, {{5, "five"}});
  a.Record(1, 3, true, {});
  a.Record(9, 1, false, {{7, "seven"}, {8, "eight"}});
  const Bytes bytes = a.Serialize();

  SessionTable b;
  ASSERT_TRUE(b.Deserialize(bytes));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(b.Check(1, 1), SessionTable::Admit::kDuplicate);
  EXPECT_EQ(b.Check(1, 2), SessionTable::Admit::kApply);
  EXPECT_EQ(b.Check(1, 3), SessionTable::Admit::kDuplicate);
  const SessionTable::Cached* c = b.Response(9, 1);
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->ok);
  EXPECT_EQ(c->rows.size(), 2u);

  // Truncations and trailing garbage are rejected, not UB.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SessionTable c2;
    Bytes prefix(bytes.begin(), bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(c2.Deserialize(prefix)) << len;
  }
  Bytes extra = bytes;
  extra.push_back(0x00);
  SessionTable c3;
  EXPECT_FALSE(c3.Deserialize(extra));
}

// ---- Codec round-trips ------------------------------------------------

template <typename T>
const T* Reencode(const MessageBase& m, Bytes* keep) {
  *keep = net::EncodeMessage(m);
  MessagePtr decoded = net::DecodeMessage(*keep);
  if (decoded == nullptr) return nullptr;
  static MessagePtr hold;  // keep the decoded object alive for the caller
  hold = decoded;
  return Cast<T>(hold);
}

TEST(SessionCodec, RoundTrips) {
  Bytes buf;
  const auto* g = Reencode<session::LeaseGrant>(
      session::LeaseGrant(2, 7, 9, 1234, TimePoint(5'000'000)), &buf);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->group, 2u);
  EXPECT_EQ(g->epoch, 7u);
  EXPECT_EQ(g->holder, 9u);
  EXPECT_EQ(g->grant_point, 1234u);
  EXPECT_EQ(g->expires_at, TimePoint(5'000'000));

  const auto* a = Reencode<session::LeaseAck>(session::LeaseAck(2, 7), &buf);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->group, 2u);
  EXPECT_EQ(a->epoch, 7u);

  const auto* r =
      Reencode<session::LeaseRevoke>(session::LeaseRevoke(2, 8), &buf);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->epoch, 8u);

  const auto* sr = Reencode<session::SessionRead>(
      session::SessionRead(11, 42, 100, 200), &buf);
  ASSERT_NE(sr, nullptr);
  EXPECT_EQ(sr->session_id, 11u);
  EXPECT_EQ(sr->req_id, 42u);
  EXPECT_EQ(sr->kmin, 100u);
  EXPECT_EQ(sr->kmax, 200u);

  const auto* rep = Reencode<session::SessionReadRep>(
      session::SessionReadRep(42, 2, session::SessionReadRep::kOk,
                              {{100, "x"}, {150, "y"}}),
      &buf);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->req_id, 42u);
  EXPECT_EQ(rep->partition, 2u);
  EXPECT_EQ(rep->status, session::SessionReadRep::kOk);
  ASSERT_EQ(rep->rows.size(), 2u);
  EXPECT_EQ(rep->rows[1].second, "y");

  const auto* rej = Reencode<session::Rejected>(
      session::Rejected(11, 42, session::Rejected::kOverload), &buf);
  ASSERT_NE(rej, nullptr);
  EXPECT_EQ(rej->session_id, 11u);
  EXPECT_EQ(rej->req_id, 42u);
  EXPECT_EQ(rej->code, session::Rejected::kOverload);

  // A kNoLease reply round-trips; a truncated frame is rejected.
  session::SessionReadRep bad(1, 0, session::SessionReadRep::kNoLease);
  EXPECT_NE(net::DecodeMessage(net::EncodeMessage(bad)), nullptr);
  Bytes trunc = net::EncodeMessage(bad);
  trunc.pop_back();
  EXPECT_EQ(net::DecodeMessage(trunc), nullptr);
}

// ---- End-to-end service ----------------------------------------------

// One ring, two session-enabled replicas (replica1 holds the read
// lease), an admission gateway in front of the coordinator, a lease
// grantor, and one session-stamped KV client submitting through the
// gateway. `spares` adds spare acceptors to the ring.
struct SessionService {
  explicit SessionService(double gateway_rate = 0, double gateway_burst = 32,
                          std::size_t gateway_queue = 64, int spares = 0) {
    DeploymentOptions opts;
    opts.n_rings = 1;
    opts.n_spares = spares;
    opts.lambda_per_sec = 4000;
    opts.batch_timeout = Millis(1);
    d = std::make_unique<SimDeployment>(opts);

    for (int r = 0; r < 2; ++r) {
      replicas.push_back(d->AddLearnerNode(
          {0}, [&](sim::SimNode& node,
                   std::vector<ringpaxos::LearnerOptions> groups) {
            replica_nodes.push_back(&node);
            smr::ReplicaConfig rc;
            rc.partition = 0;
            rc.partition_ring = groups[0];
            rc.respond = (r == 0);
            rc.sessions = true;
            rc.serve_local_reads = (r == 1);
            return std::make_unique<smr::Replica>(rc);
          }));
    }
    {
      auto& node = d->net().AddNode();
      GatewayConfig gc;
      gc.ring = d->ring(0).ring;
      gc.coordinator = d->ring(0).ring_members[0];
      gc.rate_per_sec = gateway_rate;
      gc.burst = gateway_burst;
      gc.max_queue = gateway_queue;
      auto gw = std::make_unique<Gateway>(gc);
      gateway = gw.get();
      node.BindProtocol(std::move(gw));
      d->net().Subscribe(node.self(), d->ring(0).control_channel);
      gateway_id = node.self();
    }
    grantor = d->AddLearnerNode(
        {0}, [&](sim::SimNode& node, std::vector<ringpaxos::LearnerOptions>) {
          grantor_node = &node;
          LeaseGrantorConfig lc;
          lc.ring = d->ring(0).ring;
          lc.group = d->ring(0).group;
          lc.holder = replica_nodes[1]->self();
          return std::make_unique<LeaseGrantor>(lc);
        });
    {
      smr::KvClientConfig sc;
      sc.session_id = 1;
      sc.rings = {d->ring(0)};
      sc.gateway = gateway_id;
      sc.read_replica = replica_nodes[1]->self();
      sc.window = 4;
      sc.query_ratio = 0.5;
      auto cl = std::make_unique<smr::KvClient>(sc);
      client = cl.get();
      client_node = &d->AddClient(std::move(cl), {0});
    }
    d->Start();
  }

  std::unique_ptr<SimDeployment> d;
  std::vector<smr::Replica*> replicas;
  std::vector<sim::SimNode*> replica_nodes;
  Gateway* gateway = nullptr;
  NodeId gateway_id = kNoNode;
  LeaseGrantor* grantor = nullptr;
  sim::SimNode* grantor_node = nullptr;
  smr::KvClient* client = nullptr;
  sim::SimNode* client_node = nullptr;
};

TEST(SessionService, ExactlyOnceUnderDuplicatesAndRetryStorms) {
  SessionService s;
  s.d->RunFor(Seconds(1));
  ASSERT_GT(s.client->completed(), 10u);

  // Inject duplicates and storms; every one must be suppressed.
  for (int i = 0; i < 5; ++i) {
    s.client->TriggerDuplicate(*s.client_node);
    s.client->TriggerRetryStorm(*s.client_node);
    s.d->RunFor(Millis(200));
  }
  s.d->RunFor(Seconds(1));

  EXPECT_GT(s.replicas[0]->duplicates_suppressed(), 0u);
  // Both replicas folded the identical stream: identical stores, applied
  // counts and session tables.
  EXPECT_EQ(s.replicas[0]->store().Fingerprint(),
            s.replicas[1]->store().Fingerprint());
  EXPECT_EQ(s.replicas[0]->applied(), s.replicas[1]->applied());
  EXPECT_EQ(s.replicas[0]->sessions().Fingerprint(),
            s.replicas[1]->sessions().Fingerprint());
  EXPECT_EQ(s.replicas[0]->duplicates_suppressed(),
            s.replicas[1]->duplicates_suppressed());
}

TEST(SessionService, LeaseLocalReadsServeAndSurviveExpiry) {
  SessionService s;
  s.d->RunFor(Seconds(1));
  // The lease holder serves local reads while the grantor renews.
  EXPECT_GT(s.client->local_reads(), 0u);
  EXPECT_GT(s.replicas[1]->local_reads_served(), 0u);
  EXPECT_GT(s.grantor->acked_epoch(), 0u);
  const std::uint64_t local_before = s.client->local_reads();

  // Pause the grantor: the lease expires (including for any read caught
  // mid-wait) and reads fall back through the ring.
  s.grantor->Pause();
  s.d->RunFor(Seconds(1));
  EXPECT_GT(s.client->fallback_reads(), 0u);
  const std::uint64_t completed_paused = s.client->completed();
  EXPECT_GT(completed_paused, 0u);

  // Resume under a fresh epoch: local reads recover.
  s.grantor->Resume(*s.grantor_node);
  s.d->RunFor(Seconds(1));
  EXPECT_GT(s.client->local_reads(), local_before);
  EXPECT_GT(s.client->completed(), completed_paused);
}

TEST(SessionService, OverloadShedsAndClientConverges) {
  // A tight admission budget: the client's submissions overflow the
  // bucket, get shed with Rejected(kOverload), and converge via backoff.
  SessionService s(/*gateway_rate=*/120, /*gateway_burst=*/2,
                   /*gateway_queue=*/2);
  s.d->RunFor(Seconds(2));
  EXPECT_GT(s.gateway->shed(), 0u);
  EXPECT_GT(s.client->rejected(), 0u);
  const std::uint64_t before = s.client->completed();
  EXPECT_GT(before, 0u);
  s.d->RunFor(Seconds(2));
  // Despite shedding, the client keeps making progress.
  EXPECT_GT(s.client->completed(), before);
  // Exactly-once held throughout.
  EXPECT_EQ(s.replicas[0]->sessions().Fingerprint(),
            s.replicas[1]->sessions().Fingerprint());
}

TEST(SessionService, DedupStateSurvivesCheckpointRestore) {
  SessionService s;
  s.d->RunFor(Seconds(1));
  for (int i = 0; i < 3; ++i) {
    s.client->TriggerDuplicate(*s.client_node);
    s.d->RunFor(Millis(100));
  }
  ASSERT_GT(s.client->completed(), 10u);
  const std::uint64_t sid = s.client->sid();
  ASSERT_TRUE(s.replicas[0]->sessions().IsOpen(sid));
  ASSERT_EQ(s.replicas[0]->sessions().Check(sid, 1),
            SessionTable::Admit::kDuplicate);

  // The PR-5 checkpoint path: SnapshotState captures the session table,
  // RestoreState reinstates it, so duplicates of pre-checkpoint commands
  // stay suppressed after a crash+restore.
  const Bytes snapshot = s.replicas[0]->SnapshotState();
  smr::ReplicaConfig rc;
  rc.partition = 0;
  rc.partition_ring.ring = s.d->ring(0);
  rc.sessions = true;
  smr::Replica restored(rc);
  ASSERT_TRUE(restored.RestoreState(snapshot));
  EXPECT_EQ(restored.sessions().Fingerprint(),
            s.replicas[0]->sessions().Fingerprint());
  EXPECT_TRUE(restored.sessions().IsOpen(sid));
  EXPECT_EQ(restored.sessions().Check(sid, 1),
            SessionTable::Admit::kDuplicate);
  EXPECT_EQ(restored.applied(), s.replicas[0]->applied());
}

TEST(SessionService, AbandonReopensUnderNewGeneration) {
  SessionService s;
  s.d->RunFor(Seconds(1));
  const std::uint64_t old_sid = s.client->sid();
  s.client->TriggerAbandon(*s.client_node);
  s.d->RunFor(Seconds(1));
  EXPECT_EQ(s.client->generation(), 1u);
  EXPECT_NE(s.client->sid(), old_sid);
  // The old session closed on every replica; the new one is open and
  // the client is completing commands under it.
  EXPECT_FALSE(s.replicas[0]->sessions().IsOpen(old_sid));
  EXPECT_TRUE(s.replicas[0]->sessions().IsOpen(s.client->sid()));
  EXPECT_GT(s.client->completed(), 0u);
}

TEST(SessionService, GatewayFollowsCoordinatorToSpare) {
  // Ring of 2 members plus a spare; the coordinator crashes at 1 s. The
  // gateway's coordinator hint follows the heartbeats to the new
  // coordinator, so the client's submissions keep landing.
  SessionService s(/*gateway_rate=*/0, /*gateway_burst=*/32,
                   /*gateway_queue=*/64, /*spares=*/1);
  s.d->RunFor(Seconds(1));
  ASSERT_GT(s.client->completed(), 100u);
  s.d->coordinator_node(0)->SetDown(true);
  const std::uint64_t before = s.client->completed();
  const std::uint64_t admitted = s.gateway->admitted();
  s.d->RunFor(Seconds(3));
  EXPECT_GE(s.client->completed() - before, 100u);
  EXPECT_GT(s.gateway->admitted(), admitted + 100);
  EXPECT_EQ(s.replicas[0]->sessions().Fingerprint(),
            s.replicas[1]->sessions().Fingerprint());
}

}  // namespace
}  // namespace mrp::session
