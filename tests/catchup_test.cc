// Catch-up past the acceptors' retention: a learner that starts after
// the acceptors trimmed the history it would need receives a TrimNotice
// and fast-forwards to the log's low watermark; a state-machine replica
// instead fetches a peer's state at a merge cut (late join, or a pause
// that outran retention) and converges, or stops if it has no peer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "multiring/sim_deployment.h"
#include "runtime/node_runtime.h"
#include "smr/client.h"
#include "smr/replica.h"

namespace mrp {
namespace {

using multiring::DeploymentOptions;
using multiring::SimDeployment;

TEST(CatchUp, LateLearnerFastForwardsPastTrimmedHistory) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  opts.trim_keep = 200;  // tiny retention so history vanishes quickly
  SimDeployment d(opts);
  multiring::MergeLearner::Options acking;
  acking.send_delivery_acks = true;
  auto* early = d.AddMergeLearner({0}, std::move(acking));
  ringpaxos::ProposerConfig pc;
  pc.max_outstanding = 8;
  pc.payload_size = 8 * 1024;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Seconds(1));
  const auto early_count = early->total_delivered();
  ASSERT_GT(early_count, 2000u) << "need enough history to trim";

  // A learner joining now cannot replay instance 0: it must fast-forward.
  std::uint64_t first_seq = 0;
  multiring::MergeLearner::Options lo;
  lo.on_deliver = [&first_seq](GroupId, const paxos::ClientMsg& m) {
    if (first_seq == 0) first_seq = m.seq;
  };
  auto* late = d.AddMergeLearner({0}, std::move(lo));
  d.learner_node(1)->Start();  // joins the running deployment
  d.RunFor(Seconds(1));

  EXPECT_GT(late->total_delivered(), 500u) << "late learner never caught up";
  // It joined near the live edge, not at seq 1.
  EXPECT_GT(first_seq, early_count / 2);
  EXPECT_GT(late->group_source(0)->next_instance(), 1000u);
}

// A primary replica applies a second of writes, a replica joins after
// the acceptors trimmed that history and bootstraps from the primary,
// and once the workload stops both hold the same store. With `sessions`
// both replicas dedup session-stamped commands and the client stamps
// every write: the joiner can only admit them if the session table came
// with the store.
void ExpectLateJoinerConverges(bool sessions) {
  DeploymentOptions opts;
  opts.n_rings = 1;
  opts.lambda_per_sec = 9000;
  opts.trim_keep = 200;
  SimDeployment d(opts);
  smr::Partitioning part(1, 100000);

  auto add_replica = [&](std::vector<NodeId> bootstrap_peers) {
    sim::SimNode* node = nullptr;
    auto* rep = d.AddLearnerNode(
        {0}, [&](sim::SimNode& n,
                 std::vector<ringpaxos::LearnerOptions> groups) {
          node = &n;
          smr::ReplicaConfig rc;
          rc.partition = 0;
          rc.range = part.RangeOf(0);
          rc.partition_ring = groups[0];
          rc.respond = bootstrap_peers.empty();
          rc.sessions = sessions;
          rc.bootstrap_peers = std::move(bootstrap_peers);
          return std::make_unique<smr::Replica>(rc);
        });
    return std::make_pair(rep, node);
  };
  auto [primary, primary_node] = add_replica({});

  smr::KvClientConfig cc;
  cc.partitioning = part;
  cc.rings.push_back(d.ring(0));
  cc.window = 4;
  cc.query_ratio = 0;  // writes only: maximal state churn
  if (sessions) cc.session_id = 5;
  auto& cnode = d.AddClient(std::make_unique<smr::KvClient>(cc), {0});

  d.Start();
  d.RunFor(Seconds(1));
  ASSERT_GT(primary->store().size(), 500u);

  // New replica joins late with snapshot bootstrap.
  auto [joiner, joiner_node] = add_replica({primary_node->self()});
  joiner_node->Start();
  d.RunFor(Seconds(1));

  EXPECT_TRUE(joiner->bootstrapped());
  // Quiesce: stop the workload, let the tails drain, then compare state.
  cnode.SetDown(true);
  d.RunFor(Seconds(1));
  EXPECT_EQ(primary->store().Fingerprint(), joiner->store().Fingerprint())
      << "primary " << primary->store().size() << " keys vs joiner "
      << joiner->store().size();
  if (sessions) {
    EXPECT_EQ(primary->sessions().Fingerprint(),
              joiner->sessions().Fingerprint());
  }
  // Exact, not just convergent: a joiner that replayed deliveries its
  // snapshot already held would count them twice.
  EXPECT_EQ(joiner->applied(), primary->applied());
}

TEST(CatchUp, NewReplicaBootstrapsFromPeerSnapshot) {
  ExpectLateJoinerConverges(/*sessions=*/false);
}

TEST(CatchUp, SessionReplicaBootstrapsSessionTableFromPeer) {
  ExpectLateJoinerConverges(/*sessions=*/true);
}

// A replica's node is paused for a second while the acceptors keep
// only 200 instances (about 22 ms at this rate), so on resume the ring
// no longer holds what it missed and its learner fast-forwards. The
// replica must not apply across that hole. With a peer it fetches the
// peer's state at a merge cut and resumes from there, ending with the
// primary's state; with none it stops applying for good, and what it
// applied stays a prefix of the primary's sequence.
void ExpectPausedReplicaNeverDiverges(bool with_peer) {
  DeploymentOptions opts;
  opts.n_rings = 1;
  opts.lambda_per_sec = 9000;
  opts.trim_keep = 200;
  SimDeployment d(opts);
  smr::Partitioning part(1, 100000);

  using Applied = std::vector<std::pair<NodeId, std::uint64_t>>;
  auto add_replica = [&](std::vector<NodeId> peers, bool respond,
                         Applied* log) {
    sim::SimNode* node = nullptr;
    auto* rep = d.AddLearnerNode(
        {0}, [&](sim::SimNode& n,
                 std::vector<ringpaxos::LearnerOptions> groups) {
          node = &n;
          smr::ReplicaConfig rc;
          rc.partition = 0;
          rc.range = part.RangeOf(0);
          rc.partition_ring = groups[0];
          rc.respond = respond;
          rc.sessions = true;
          rc.bootstrap_peers = std::move(peers);
          rc.on_apply = [log](const smr::Command& c) {
            log->emplace_back(c.client, c.req_id);
          };
          return std::make_unique<smr::Replica>(rc);
        });
    return std::make_pair(rep, node);
  };
  Applied primary_log, paused_log;
  auto [primary, primary_node] = add_replica({}, true, &primary_log);
  auto [paused, paused_node] = add_replica(
      with_peer ? std::vector<NodeId>{primary_node->self()}
                : std::vector<NodeId>{},
      false, &paused_log);

  smr::KvClientConfig cc;
  cc.partitioning = part;
  cc.rings.push_back(d.ring(0));
  cc.window = 4;
  cc.query_ratio = 0;  // writes only
  cc.session_id = 5;
  auto& cnode = d.AddClient(std::make_unique<smr::KvClient>(cc), {0});

  d.Start();
  d.RunFor(Seconds(1));
  paused_node->SetDown(true);
  d.RunFor(Seconds(1));
  paused_node->SetDown(false);
  d.RunFor(Seconds(1));
  cnode.SetDown(true);  // stop the workload and drain
  d.RunFor(Seconds(1));

  const MetricsRegistry& m = paused_node->metrics();
  ASSERT_GT(m.CounterValue("learner.r0.fast_forwarded"), 0u)
      << "the pause never outran the acceptors' retention";
  EXPECT_GE(m.CounterValue("recovery.gaps"), 1u);
  ASSERT_GT(primary->applied(), 5000u);
  if (with_peer) {
    EXPECT_EQ(m.CounterValue("recovery.fail_stops"), 0u);
    EXPECT_EQ(primary->store().Fingerprint(), paused->store().Fingerprint())
        << "primary " << primary->store().size() << " keys vs paused "
        << paused->store().size();
    EXPECT_EQ(primary->sessions().Fingerprint(),
              paused->sessions().Fingerprint());
    EXPECT_EQ(paused->applied(), primary->applied());
  } else {
    EXPECT_EQ(m.CounterValue("recovery.fail_stops"), 1u);
    EXPECT_LT(paused->applied(), primary->applied());
    ASSERT_LE(paused_log.size(), primary_log.size());
    EXPECT_TRUE(std::equal(paused_log.begin(), paused_log.end(),
                           primary_log.begin()))
        << "the paused replica applied a sequence the primary did not";
  }
}

TEST(CatchUp, PausedReplicaFetchesPeerStatePastRetention) {
  ExpectPausedReplicaNeverDiverges(/*with_peer=*/true);
}

TEST(CatchUp, PausedReplicaWithoutPeersFailStops) {
  ExpectPausedReplicaNeverDiverges(/*with_peer=*/false);
}

// The same bootstrap over real UDP, with a state far larger than one
// 60 kB frame: the transfer must arrive as chunks, not as one datagram
// the transport would have to drop.
TEST(CatchUp, BootstrapOverUdpCarriesStatePastOneFrame) {
  multiring::DeploymentSpec spec;
  spec.lambda_per_sec = 1000;
  runtime::UdpConfig udp;
  udp.base_port = 50100;
  udp.mcast_port_base = 50600;
  udp.mcast_prefix = "239.255.96.";
  runtime::LocalCluster cluster(spec, runtime::LocalCluster::Kind::kUdp, udp);

  // 150 rows of 500 bytes: about 75 kB of store.
  smr::KvStore seed;
  for (smr::Key k = 0; k < 150; ++k) {
    seed.Insert(k, std::string(500, static_cast<char>('a' + k % 26)));
  }
  ByteWriter state;
  state.u64(0);
  state.bytes(seed.Serialize());
  state.bytes(session::SessionTable(64).Serialize());
  state.varint(0);  // no sealed ranges

  auto add_replica = [&](std::vector<NodeId> bootstrap_peers) {
    NodeId id = kNoNode;
    auto* rep = cluster.AddLearnerNode(
        {0}, [&](NodeId self, std::vector<ringpaxos::LearnerOptions> groups) {
          id = self;
          smr::ReplicaConfig rc;
          rc.partition_ring = groups[0];
          rc.respond = bootstrap_peers.empty();
          rc.bootstrap_peers = std::move(bootstrap_peers);
          return std::make_unique<smr::Replica>(rc);
        });
    return std::make_pair(rep, id);
  };
  auto [primary, primary_id] = add_replica({});
  ASSERT_TRUE(primary->RestoreState(state.take()));
  auto [joiner, joiner_id] = add_replica({primary_id});

  // Queries only: deliveries start the joiner's fetch, and neither store
  // changes afterwards, so the two must end up equal.
  smr::KvClientConfig cc;
  cc.rings.push_back(cluster.ring(0));
  cc.window = 2;
  cc.query_ratio = 1.0;
  cluster.AddClient(std::make_unique<smr::KvClient>(cc), {0});

  cluster.Start();
  bool bootstrapped = false;
  for (int i = 0; i < 100 && !bootstrapped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cluster.node(joiner_id).RunOnLoop(
        [&] { bootstrapped = joiner->bootstrapped(); });
  }
  cluster.Stop();

  EXPECT_TRUE(bootstrapped);
  EXPECT_EQ(joiner->store().size(), 150u);
  EXPECT_EQ(primary->store().Fingerprint(), joiner->store().Fingerprint());
  EXPECT_EQ(cluster.udp(primary_id).tx_oversized(), 0u);
}

// Trim-vs-catchup race: a learner recovering gaps over a lossy link
// races the acceptors' trimmer, which keeps erasing the very history the
// learner is asking for. Every LearnReq must come back as either the
// instances or a TrimNotice fast-forward — a stalled learner or an
// out-of-order delivery is the race lost. The network seed is pinned:
// this exact loss pattern interleaves retransmissions with trims.
TEST(CatchUp, TrimRacesRecoveryUnderLoss) {
  DeploymentOptions opts;
  opts.net.seed = 0x7219;  // pinned loss schedule
  opts.trim_keep = 150;    // trim breathes down the learner's neck
  opts.lambda_per_sec = 9000;
  SimDeployment d(opts);

  // Lost delivery acks cause bounded retransmission duplicates, so exact
  // monotonicity is not an invariant here. What IS one: a delivery may
  // only revisit seqs still inside the proposer's retransmission window —
  // a deeper regression means the learner replayed history the trimmer
  // already erased (or fast-forwarded and then went back).
  std::uint64_t max_seq = 0;
  std::uint64_t deep_regressions = 0;
  multiring::MergeLearner::Options acking;
  acking.send_delivery_acks = true;
  auto* learner = d.AddMergeLearner({0}, std::move(acking));
  // A second, tapped learner must survive the same race.
  multiring::MergeLearner::Options lo;
  lo.on_deliver = [&](GroupId, const paxos::ClientMsg& m) {
    if (m.seq + 64 < max_seq) ++deep_regressions;
    max_seq = std::max(max_seq, m.seq);
  };
  auto* late = d.AddMergeLearner({0}, std::move(lo));

  ringpaxos::ProposerConfig pc;
  pc.max_outstanding = 8;
  pc.payload_size = 1024;
  d.AddProposer(0, pc);
  d.Start();
  d.RunFor(Millis(200));

  // 10% loss on every link: decisions go missing, recovery kicks in
  // while the coordinator keeps trimming at trim_keep=150.
  d.net().SetLossProbability(0.10);
  d.RunFor(Seconds(2));
  d.net().SetLossProbability(0.0);
  d.RunFor(Seconds(1));

  EXPECT_GT(learner->total_delivered(), 1000u) << "acking learner stalled";
  EXPECT_GT(late->total_delivered(), 1000u) << "tapped learner stalled";
  EXPECT_EQ(deep_regressions, 0u) << "delivery went backwards past a trim";
  // The learner rode the live edge, not the trimmed tail.
  EXPECT_GT(late->group_source(0)->next_instance() + 5 * opts.trim_keep,
            learner->group_source(0)->next_instance());
}

}  // namespace
}  // namespace mrp
