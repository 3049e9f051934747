// Partitioned key-value service tests (paper Section II-C): replica
// determinism, routing of single- vs multi-partition operations,
// selective execution and client response collection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "multiring/sim_deployment.h"
#include "smr/client.h"
#include "smr/kvstore.h"
#include "smr/replica.h"

namespace mrp::smr {
namespace {

using multiring::DeploymentOptions;
using multiring::SimDeployment;
using ringpaxos::LearnerOptions;

TEST(KvStore, BasicOperations) {
  KvStore s;
  s.Insert(5, "five");
  s.Insert(10, "ten");
  s.Insert(7, "seven");
  EXPECT_EQ(s.size(), 3u);
  auto rows = s.Query(5, 8);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, 5u);
  EXPECT_EQ(rows[1].first, 7u);
  EXPECT_TRUE(s.Delete(7));
  EXPECT_FALSE(s.Delete(7));
  EXPECT_EQ(s.Query(0, 100).size(), 2u);
}

TEST(KvStore, FingerprintDetectsDivergence) {
  KvStore a, b;
  a.Insert(1, "x");
  b.Insert(1, "x");
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.Insert(2, "y");
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(Partitioning, RangesCoverSpaceWithoutOverlap) {
  Partitioning p(4, 1000);
  EXPECT_EQ(p.PartitionOf(0), 0u);
  EXPECT_EQ(p.PartitionOf(249), 0u);
  EXPECT_EQ(p.PartitionOf(250), 1u);
  EXPECT_EQ(p.PartitionOf(999), 3u);
  Key covered = 0;
  for (GroupId g = 0; g < 4; ++g) {
    auto [lo, hi] = p.RangeOf(g);
    EXPECT_EQ(lo, covered);
    covered = hi + 1;
  }
  EXPECT_EQ(covered, 1000u);
  EXPECT_TRUE(p.SinglePartition(10, 20));
  EXPECT_FALSE(p.SinglePartition(240, 260));
}

TEST(Command, EncodeDecodeRoundtrip) {
  Command c = Command::Insert(42, "value!");
  c.req_id = 7;
  c.client = 3;
  auto decoded = Command::Decode(c.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, Command::Op::kInsert);
  EXPECT_EQ(decoded->key, 42u);
  EXPECT_EQ(decoded->value, "value!");
  EXPECT_EQ(decoded->req_id, 7u);
  EXPECT_EQ(decoded->client, 3u);

  Command q = Command::Query(10, 99);
  auto dq = Command::Decode(q.Encode());
  ASSERT_TRUE(dq.has_value());
  EXPECT_EQ(dq->op, Command::Op::kQuery);
  EXPECT_EQ(dq->kmin, 10u);
  EXPECT_EQ(dq->kmax, 99u);

  EXPECT_FALSE(Command::Decode(Bytes{1, 2}).has_value());
}

// Full service: P partitions (one ring each) + a g_all ring, two
// replicas per partition, closed-loop clients with mixed operations.
struct Service {
  explicit Service(int partitions, int clients, double multi_ratio = 0.3)
      : part(static_cast<std::uint32_t>(partitions), 100000) {
    DeploymentOptions opts;
    opts.n_rings = partitions + (partitions > 1 ? 1 : 0);  // + g_all
    opts.lambda_per_sec = 9000;
    opts.batch_timeout = Millis(1);
    d = std::make_unique<SimDeployment>(opts);

    for (int p = 0; p < partitions; ++p) {
      std::vector<int> rings = {p};
      if (partitions > 1) rings.push_back(partitions);
      for (int r = 0; r < 2; ++r) {
        replicas.push_back(d->AddLearnerNode(
            rings, [&](sim::SimNode&, std::vector<LearnerOptions> groups) {
              ReplicaConfig rc;
              rc.partition = static_cast<GroupId>(p);
              rc.range = part.RangeOf(rc.partition);
              rc.partition_ring = groups[0];
              if (partitions > 1) rc.all_ring = groups[1];
              // Only the first replica answers (avoids duplicate-response
              // load).
              rc.respond = (r == 0);
              return std::make_unique<Replica>(rc);
            }));
      }
    }
    std::vector<int> all_rings;
    for (int r = 0; r < d->n_rings(); ++r) all_rings.push_back(r);
    for (int c = 0; c < clients; ++c) {
      KvClientConfig cc;
      cc.partitioning = part;
      for (int r : all_rings) cc.rings.push_back(d->ring(r));
      cc.window = 2;
      cc.multi_partition_ratio = multi_ratio;
      auto client = std::make_unique<KvClient>(cc);
      this->clients.push_back(client.get());
      d->AddClient(std::move(client), all_rings);
    }
    d->Start();
  }

  Partitioning part;
  std::unique_ptr<SimDeployment> d;
  std::vector<Replica*> replicas;
  std::vector<KvClient*> clients;
};

TEST(KvService, SinglePartitionServiceCompletesOps) {
  Service s(1, 2);
  s.d->RunFor(Seconds(1));
  std::uint64_t total = 0;
  for (auto* c : s.clients) total += c->completed();
  EXPECT_GT(total, 200u);
}

TEST(KvService, ReplicasOfAPartitionConverge) {
  Service s(2, 4);
  s.d->RunFor(Seconds(2));
  // Same partition, same state.
  EXPECT_EQ(s.replicas[0]->store().Fingerprint(),
            s.replicas[1]->store().Fingerprint());
  EXPECT_EQ(s.replicas[2]->store().Fingerprint(),
            s.replicas[3]->store().Fingerprint());
  // Different partitions hold different keys.
  EXPECT_GT(s.replicas[0]->applied(), 50u);
  EXPECT_GT(s.replicas[2]->applied(), 50u);
}

TEST(KvService, MultiPartitionQueriesCollectAllPartitions) {
  Service s(4, 4, /*multi_ratio=*/1.0);
  s.d->RunFor(Seconds(2));
  std::uint64_t total = 0;
  for (auto* c : s.clients) total += c->completed();
  EXPECT_GT(total, 100u);
  // Cross-partition queries reached replicas of several partitions: the
  // g_all ring delivered to everyone, and out-of-range parts discarded.
  std::uint64_t discarded = 0;
  for (auto* r : s.replicas) discarded += r->discarded();
  EXPECT_GT(discarded, 0u);
}

// Coordinator failover: one ring of 2 members plus a spare, two
// session-enabled replicas and one client. The coordinator crashes at
// 1 s; the spare takes over, and the client must follow it there (its
// heartbeat-fed coordinator hint moves, and its retries reach the new
// coordinator) instead of retrying the dead node for good.
std::uint64_t CompletedAfterCoordinatorCrash(std::uint64_t session_id) {
  DeploymentOptions opts;
  opts.n_rings = 1;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.lambda_per_sec = 9000;
  SimDeployment d(opts);
  for (int r = 0; r < 2; ++r) {
    d.AddLearnerNode(
        {0}, [r](sim::SimNode&, std::vector<LearnerOptions> groups) {
          ReplicaConfig rc;
          rc.partition_ring = groups[0];
          rc.respond = (r == 0);
          rc.sessions = true;
          return std::make_unique<Replica>(rc);
        });
  }
  KvClientConfig cc;
  cc.rings = {d.ring(0)};
  cc.window = 4;
  cc.session_id = session_id;
  auto owned = std::make_unique<KvClient>(cc);
  KvClient* client = owned.get();
  d.AddClient(std::move(owned), {0});
  d.Start();
  d.RunFor(Seconds(1));
  EXPECT_GT(client->completed(), 100u) << "no steady state before the crash";
  d.coordinator_node(0)->SetDown(true);
  const std::uint64_t before = client->completed();
  d.RunFor(Seconds(3));
  auto is_coordinator = [&d](int member) {
    return d.acceptor_node(0, member)
        ->protocol_as<ringpaxos::RingNode>()
        ->is_coordinator();
  };
  EXPECT_TRUE(is_coordinator(1) || is_coordinator(2))
      << "no surviving acceptor took over";
  return client->completed() - before;
}

TEST(KvFailover, PlainClientFollowsCoordinatorToSpare) {
  EXPECT_GE(CompletedAfterCoordinatorCrash(/*session_id=*/0), 100u);
}

TEST(KvFailover, SessionClientFollowsCoordinatorToSpare) {
  EXPECT_GE(CompletedAfterCoordinatorCrash(/*session_id=*/7), 100u);
}

TEST(KvService, DummyModeDiscardsEverything) {
  DeploymentOptions opts;
  opts.n_rings = 1;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);
  auto* replica = d.AddLearnerNode(
      {0}, [](sim::SimNode&, std::vector<LearnerOptions> groups) {
        ReplicaConfig rc;
        rc.partition_ring = groups[0];
        rc.execute = false;  // Figure 2's dummy service
        return std::make_unique<Replica>(rc);
      });

  ringpaxos::ProposerConfig pc;
  pc.schedule = {{Seconds(0), 1000.0}};  // open loop: no acks needed
  pc.payload_size = 1024;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  EXPECT_GT(replica->discarded(), 100u);
  EXPECT_EQ(replica->applied(), 0u);
  EXPECT_EQ(replica->store().size(), 0u);
}

}  // namespace
}  // namespace mrp::smr
