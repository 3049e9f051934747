// Checkpoint & recovery subsystem tests (docs/RECOVERY.md): codec
// round-trips for the recovery wire messages, Checkpoint encoding,
// SnapshotStore retention, frontier-clamped FileStorage trimming
// (the safety tie), the durable checkpoint archive, and sim-driven
// end-to-end crash/recover scenarios — including snapshot-chunk loss
// and a mid-transfer peer crash — checked by the RecoveryOracle.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "check/oracles.h"
#include "check/recovery_oracle.h"
#include "multiring/sim_deployment.h"
#include "net/codec.h"
#include "paxos/value.h"
#include "recovery/checkpoint.h"
#include "recovery/hash_app.h"
#include "recovery/messages.h"
#include "recovery/recoverable_learner.h"
#include "recovery/snapshot_store.h"
#include "ringpaxos/proposer.h"
#include "runtime/file_storage.h"
#include "runtime/snapshot_persistence.h"
#include "sim/snapshot_disk.h"
#include "smr/kvstore.h"

namespace mrp {
namespace {

// ------------------------------------------------ codec round-trips

template <typename T>
std::shared_ptr<const T> RoundTrip(const T& msg) {
  const Bytes wire = net::EncodeMessage(msg);
  MessagePtr decoded = net::DecodeMessage(wire);
  auto typed = std::dynamic_pointer_cast<const T>(decoded);
  EXPECT_NE(typed, nullptr) << msg.TypeName();
  return typed;
}

TEST(RecoveryCodec, CheckpointControlPlaneRoundTrips) {
  auto req = RoundTrip(recovery::CheckpointRequest(42));
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->epoch, 42u);

  const std::vector<recovery::RingFrontier> fronts = {{0, 1200}, {3, 900}};
  auto rep = RoundTrip(recovery::CheckpointReport(7, 5, fronts));
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->epoch, 7u);
  EXPECT_EQ(rep->checkpoint_id, 5u);
  EXPECT_EQ(rep->frontiers, fronts);

  auto adv = RoundTrip(recovery::FrontierAdvert(8, fronts));
  ASSERT_NE(adv, nullptr);
  EXPECT_EQ(adv->epoch, 8u);
  EXPECT_EQ(adv->frontiers, fronts);
}

TEST(RecoveryCodec, SnapshotTransferRoundTrips) {
  auto req = RoundTrip(recovery::SnapshotRequest(9, 4, 16));
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->checkpoint_id, 9u);
  EXPECT_EQ(req->from_chunk, 4u);
  EXPECT_EQ(req->max_chunks, 16u);

  const Bytes data = {0x01, 0x02, 0xff, 0x00, 0x7f};
  auto chunk = RoundTrip(recovery::SnapshotChunk(9, 2, 5, data));
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->checkpoint_id, 9u);
  EXPECT_EQ(chunk->index, 2u);
  EXPECT_EQ(chunk->total_chunks, 5u);
  EXPECT_EQ(chunk->data, data);

  auto done = RoundTrip(
      recovery::SnapshotDone(9, 5, 4096, 0xfeedfacecafebeefULL));
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->checkpoint_id, 9u);
  EXPECT_EQ(done->total_chunks, 5u);
  EXPECT_EQ(done->total_bytes, 4096u);
  EXPECT_EQ(done->digest, 0xfeedfacecafebeefULL);
}

// ------------------------------------------------ Checkpoint encoding

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  recovery::Checkpoint cp;
  cp.id = 11;
  cp.delivered_count = 123456;
  cp.cut = {{0, 500, 2}, {1, 480, 0}};
  cp.app_state = {0xde, 0xad, 0xbe, 0xef};

  auto back = recovery::Checkpoint::Decode(cp.Encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, 11u);
  EXPECT_EQ(back->delivered_count, 123456u);
  EXPECT_EQ(back->cut, cp.cut);
  EXPECT_EQ(back->app_state, cp.app_state);

  const auto fronts = back->Frontiers();
  ASSERT_EQ(fronts.size(), 2u);
  EXPECT_EQ(fronts[0], (recovery::RingFrontier{0, 500}));
  EXPECT_EQ(fronts[1], (recovery::RingFrontier{1, 480}));
}

TEST(Checkpoint, DecodeRejectsGarbage) {
  EXPECT_FALSE(recovery::Checkpoint::Decode({}).has_value());
  EXPECT_FALSE(recovery::Checkpoint::Decode({0x01, 0x02}).has_value());
  // Trailing junk after a valid encoding must also be rejected.
  recovery::Checkpoint cp;
  cp.id = 1;
  Bytes enc = cp.Encode();
  enc.push_back(0x00);
  EXPECT_FALSE(recovery::Checkpoint::Decode(enc).has_value());
}

// ------------------------------------------------ SnapshotStore

TEST(SnapshotStore, KeepsNewestAndServesPinnedIds) {
  recovery::SnapshotStore store(2);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    recovery::Checkpoint cp;
    cp.id = id;
    cp.delivered_count = id * 100;
    bool durable = false;
    store.Put(cp, [&] { durable = true; });
    EXPECT_TRUE(durable);  // no backend: durable synchronously
  }
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(store.Encoded(1), nullptr);  // evicted oldest-first
  ASSERT_NE(store.Encoded(2), nullptr);  // superseded but still pinned
  ASSERT_NE(store.Encoded(0), nullptr);  // 0 = latest
  auto latest = recovery::Checkpoint::Decode(*store.Encoded(0));
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->id, 3u);
  EXPECT_EQ(latest->delivered_count, 300u);
}

}  // namespace
}  // namespace mrp

// ------------------------------------------------ safety-tied trimming

namespace mrp::runtime {
namespace {

std::string TempPath(const char* tag) {
  return std::string("/tmp/mrp_recovery_") + tag + "_" +
         std::to_string(::getpid()) + ".log";
}

paxos::AcceptorRecord MakeRecord() {
  paxos::AcceptorRecord rec;
  rec.promised = 1;
  rec.accepted_round = 1;
  rec.accepted = paxos::Value::Skip(1);
  return rec;
}

// Satellite regression: a lagging learner's refetch range must survive
// both Trim and compaction once the stable checkpoint frontier is set.
TEST(FileStorageFrontier, TrimAndCompactClampToStableFrontier) {
  const std::string path = TempPath("clamp");
  std::remove(path.c_str());
  {
    FileStorage st(path);
    for (InstanceId i = 0; i < 100; ++i) st.Put(i, MakeRecord(), 50, nullptr);

    // A crashed learner's last checkpoint pinned the frontier at 60;
    // the watermark-driven caller asks to trim far above it.
    st.SetCheckpointFrontier(60);
    st.Trim(95);
    EXPECT_EQ(st.Get(59), nullptr);   // below the frontier: trimmed
    ASSERT_NE(st.Get(60), nullptr);   // frontier itself retained
    ASSERT_NE(st.Get(94), nullptr);   // everything the learner may refetch
    EXPECT_EQ(st.trims_clamped(), 1u);

    // The frontier is monotone: a stale (lower) advert cannot reopen
    // already-trimmed territory for the next trim.
    st.SetCheckpointFrontier(20);
    EXPECT_EQ(st.checkpoint_frontier(), 60u);

    // Compaction persists only the clamped state (60% of the log is
    // garbage, so the policy rewrites even with min_bytes = 0).
    st.Flush();
    EXPECT_TRUE(st.MaybeCompact(0));
  }
  FileStorage reloaded(path);
  EXPECT_EQ(reloaded.Load(), 40u);  // instances 60..99 survived restart
  ASSERT_NE(reloaded.Get(60), nullptr);
  EXPECT_EQ(reloaded.Get(59), nullptr);
  std::remove(path.c_str());
}

TEST(FileStorageFrontier, UnsetFrontierKeepsSeedTrimBehaviour) {
  const std::string path = TempPath("unset");
  std::remove(path.c_str());
  FileStorage st(path);
  for (InstanceId i = 0; i < 10; ++i) st.Put(i, MakeRecord(), 50, nullptr);
  EXPECT_FALSE(st.has_checkpoint_frontier());
  st.Trim(8);
  EXPECT_EQ(st.Get(7), nullptr);  // caller-driven policy untouched
  EXPECT_EQ(st.trims_clamped(), 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------ durable archive

TEST(FileSnapshotPersistence, PersistLoadAndRestartReplay) {
  const std::string path = TempPath("archive");
  std::remove(path.c_str());
  {
    FileSnapshotPersistence archive(path, /*keep=*/2);
    EXPECT_EQ(archive.Load(), 0u);
    EXPECT_FALSE(archive.LoadLatest().has_value());
    for (std::uint64_t id = 1; id <= 3; ++id) {
      recovery::Checkpoint cp;
      cp.id = id;
      cp.delivered_count = id * 10;
      bool durable = false;
      archive.Persist(id, cp.Encode(), [&] { durable = true; });
      EXPECT_TRUE(durable);
    }
    auto latest = archive.LoadLatest();
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(recovery::Checkpoint::Decode(*latest)->id, 3u);
  }
  // Restart: the archive replays from disk; the keep=2 retention means
  // the newest id certainly survived.
  FileSnapshotPersistence reopened(path, 2);
  EXPECT_GE(reopened.Load(), 1u);
  auto latest = reopened.LoadLatest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(recovery::Checkpoint::Decode(*latest)->id, 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrp::runtime

// ------------------------------------------------ app snapshot state

namespace mrp::smr {
namespace {

TEST(KvStoreSnapshot, SerializeRoundTripPreservesFingerprint) {
  KvStore a;
  a.Insert(1, "one");
  a.Insert(42, std::string(3000, 'x'));  // multi-chunk sized value
  a.Insert(7, "");
  KvStore b;
  b.Insert(99, "stale");  // must be replaced wholesale, not merged
  ASSERT_TRUE(b.Deserialize(a.Serialize()));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.Fingerprint(), a.Fingerprint());

  // Malformed input leaves the destination untouched.
  KvStore c;
  c.Insert(5, "keep");
  const auto before = c.Fingerprint();
  EXPECT_FALSE(c.Deserialize({0x01, 0x02, 0x03}));
  EXPECT_EQ(c.Fingerprint(), before);
}

}  // namespace
}  // namespace mrp::smr

// ------------------------------------------------ sim end-to-end

namespace mrp::recovery {
namespace {

struct RecoveryRig {
  explicit RecoveryRig(std::uint64_t seed, double loss = 0.0) {
    multiring::DeploymentOptions opts;
    opts.n_rings = 2;
    opts.ring_size = 2;
    opts.net.seed = seed;
    opts.net.loss_probability = loss;
    opts.frontier_gated_trim = true;
    d = std::make_unique<multiring::SimDeployment>(opts);
    for (int r = 0; r < opts.n_rings; ++r) rings.push_back(r);
  }

  RecoverableLearner::Options MakeOpts(check::RecoveryOracle* oracle,
                                       bool target) {
    RecoverableLearner::Options ro;
    apps.push_back(std::make_unique<HashApp>());
    auto* app = apps.back().get();
    ro.app = app;
    ro.coordinator = coordinator_id;
    if (target) {
      ro.fetch.peers = peers;
      ro.merge.on_deliver = [app, oracle](GroupId g,
                                          const paxos::ClientMsg& m) {
        if (oracle != nullptr) oracle->OnRecoveredDeliver(g, m);
        app->Apply(g, m);
      };
      ro.on_restore = [oracle](std::uint64_t resume, const Checkpoint&) {
        if (oracle != nullptr) oracle->BeginRecovered(resume);
      };
    } else {
      ro.merge.on_deliver = [app, oracle](GroupId g,
                                          const paxos::ClientMsg& m) {
        if (oracle != nullptr) oracle->OnReferenceDeliver(g, m);
        app->Apply(g, m);
      };
    }
    return ro;
  }

  // A recoverable learner of every ring; its simulated snapshot disk
  // outlives crash-replacing the protocol, like a real disk.
  struct Rec {
    sim::SimNode* node = nullptr;
    RecoverableLearner* learner = nullptr;
    std::unique_ptr<sim::SimSnapshotPersistence> disk;
  };
  Rec Add(RecoverableLearner::Options ro) {
    Rec out;
    out.learner = d->AddLearnerNode(
        rings, [&](sim::SimNode& node,
                   std::vector<ringpaxos::LearnerOptions> groups) {
          out.node = &node;
          out.disk = std::make_unique<sim::SimSnapshotPersistence>(node);
          ro.persistence = out.disk.get();
          ro.merge.groups = std::move(groups);
          return std::make_unique<RecoverableLearner>(std::move(ro));
        });
    return out;
  }

  // Crash-revives `rec` with a fresh learner that bootstraps from
  // `ro.fetch.peers` before going live.
  void Revive(Rec& rec, RecoverableLearner::Options ro) {
    ro.recover_on_start = true;
    ro.persistence = rec.disk.get();
    ro.merge.groups = d->spec().LearnerGroups(rings);
    auto learner = std::make_unique<RecoverableLearner>(std::move(ro));
    rec.learner = learner.get();
    rec.node->ReplaceProtocol(std::move(learner));
  }

  // Checkpoint coordinator on `node`, advertising on every ring.
  CheckpointCoordinator* BindCoordinator(sim::SimNode& node,
                                         std::vector<NodeId> learners) {
    CheckpointCoordinator::Options co;
    co.interval = Millis(50);
    co.learners = std::move(learners);
    for (int r : rings) {
      co.rings.emplace_back(d->ring(r).ring, d->ring(r).control_channel);
    }
    auto coord = std::make_unique<CheckpointCoordinator>(std::move(co));
    auto* raw = coord.get();
    node.BindProtocol(std::move(coord));
    return raw;
  }

  void AddTraffic() {
    for (int r : rings) {
      ringpaxos::ProposerConfig pc;
      pc.payload_size = 256;
      pc.max_outstanding = 8;
      d->AddProposer(r, pc);
    }
  }

  std::unique_ptr<multiring::SimDeployment> d;
  std::vector<int> rings;
  std::vector<std::unique_ptr<HashApp>> apps;
  NodeId coordinator_id = kNoNode;
  std::vector<NodeId> peers;
};

// The core acceptance scenario: the crash target loses all in-memory
// state mid-run, bootstraps from its peer's snapshot, resumes at the
// checkpointed cut (not instance 0) and delivers the reference stream
// byte-for-byte from there on.
TEST(RecoveryEndToEnd, CrashedLearnerResumesFromPeerSnapshot) {
  check::OracleSuite suite;
  check::RecoveryOracle oracle(&suite);
  RecoveryRig rig(/*seed=*/7);

  auto& coord_node = rig.d->net().AddNode();
  rig.coordinator_id = coord_node.self();
  auto rec_a = rig.Add(rig.MakeOpts(&oracle, false));
  rig.peers = {rec_a.node->self()};
  auto rec_b = rig.Add(rig.MakeOpts(&oracle, true));
  rig.BindCoordinator(coord_node, {rec_a.node->self(), rec_b.node->self()});
  rig.AddTraffic();

  auto& sched = rig.d->net().scheduler();
  sched.At(TimePoint(Millis(400).count()),
           [&rec_b] { rec_b.node->SetDown(true); });
  sched.At(TimePoint(Millis(600).count()), [&] {
    rig.Revive(rec_b, rig.MakeOpts(&oracle, true));
    rec_b.node->SetDown(false);
    rec_b.node->Start();
  });

  rig.d->Start();
  rig.d->RunFor(Millis(1500));

  // The restore actually used a peer snapshot: resume index > 0 means
  // the learner did NOT replay from instance 0.
  EXPECT_GT(rec_b.learner->resume_index(), 0u);
  EXPECT_FALSE(rec_b.learner->recovering());
  EXPECT_GT(rec_a.learner->checkpoints_taken(), 0u);
  EXPECT_GT(rec_a.learner->serve_requests(), 0u);

  oracle.Finish();
  EXPECT_TRUE(suite.ok()) << suite.Report();
  EXPECT_GT(oracle.compared(), 0u);
  EXPECT_EQ(oracle.segments(), 2u);  // initial boot + one recovery
}

// Snapshot chunks see loss/reordering/duplication (the sim's lossy
// delivery plus retries produce all three); the chunk-map assembly and
// gap re-requests must still converge to a digest-verified restore.
TEST(RecoveryEndToEnd, SnapshotTransferSurvivesChunkLoss) {
  check::OracleSuite suite;
  check::RecoveryOracle oracle(&suite);
  RecoveryRig rig(/*seed=*/21, /*loss=*/0.05);

  auto& coord_node = rig.d->net().AddNode();
  rig.coordinator_id = coord_node.self();
  auto rec_a = rig.Add(rig.MakeOpts(&oracle, false));
  rig.peers = {rec_a.node->self()};
  auto rec_b = rig.Add(rig.MakeOpts(&oracle, true));
  rig.BindCoordinator(coord_node, {rec_a.node->self(), rec_b.node->self()});
  rig.AddTraffic();

  auto& sched = rig.d->net().scheduler();
  sched.At(TimePoint(Millis(400).count()),
           [&rec_b] { rec_b.node->SetDown(true); });
  sched.At(TimePoint(Millis(600).count()), [&] {
    auto ro = rig.MakeOpts(&oracle, true);
    ro.fetch.retry_interval = Millis(10);  // keep the lossy run short
    rig.Revive(rec_b, std::move(ro));
    rec_b.node->SetDown(false);
    rec_b.node->Start();
  });

  rig.d->Start();
  rig.d->RunFor(Millis(2500));

  EXPECT_GT(rec_b.learner->resume_index(), 0u);
  EXPECT_FALSE(rec_b.learner->recovering());
  oracle.Finish();
  EXPECT_TRUE(suite.ok()) << suite.Report();
}

// Mid-transfer peer crash: the serving peer goes down right as the
// transfer starts; the manager must rotate to the second peer and
// complete the restore from there.
TEST(RecoveryEndToEnd, MidTransferPeerCrashRotatesToNextPeer) {
  check::OracleSuite suite;
  check::RecoveryOracle oracle(&suite);
  RecoveryRig rig(/*seed=*/5);

  auto& coord_node = rig.d->net().AddNode();
  rig.coordinator_id = coord_node.self();
  // The reference stream comes from the peer that survives: the target
  // resumes at a checkpoint taken when it asks, past anything the
  // crashed peer delivered.
  auto rec_a1 = rig.Add(rig.MakeOpts(nullptr, false));
  auto rec_a2 = rig.Add(rig.MakeOpts(&oracle, false));
  rig.peers = {rec_a1.node->self(), rec_a2.node->self()};
  auto rec_b = rig.Add(rig.MakeOpts(&oracle, true));
  rig.BindCoordinator(coord_node, {rec_a1.node->self(), rec_a2.node->self(),
                                   rec_b.node->self()});
  rig.AddTraffic();

  auto& sched = rig.d->net().scheduler();
  sched.At(TimePoint(Millis(400).count()),
           [&rec_b] { rec_b.node->SetDown(true); });
  // Crash the first-choice peer just before the target revives, so the
  // first transfer stalls against a dead server.
  sched.At(TimePoint(Millis(590).count()),
           [&rec_a1] { rec_a1.node->SetDown(true); });
  sched.At(TimePoint(Millis(600).count()), [&] {
    auto ro = rig.MakeOpts(&oracle, true);
    ro.fetch.retry_interval = Millis(10);
    ro.fetch.peer_fail_after = 2;
    rig.Revive(rec_b, std::move(ro));
    rec_b.node->SetDown(false);
    rec_b.node->Start();
  });

  rig.d->Start();
  rig.d->RunFor(Millis(2500));

  EXPECT_GE(rec_b.learner->fetcher().peer_rotations(), 1u);
  EXPECT_GT(rec_b.learner->resume_index(), 0u);
  EXPECT_FALSE(rec_b.learner->recovering());
  oracle.Finish();
  EXPECT_TRUE(suite.ok()) << suite.Report();
  EXPECT_GT(oracle.compared(), 0u);
}

// A restore the application refuses is a failed fetch, not a resume on
// top of unspecified state: the learner stays recovering, fetches again
// and resumes only at a checkpoint the application accepted.
class RefusingApp final : public Snapshottable {
 public:
  RefusingApp(HashApp* app, int refusals) : app_(app), refusals_(refusals) {}
  Bytes SnapshotState() const override { return app_->SnapshotState(); }
  bool RestoreState(const Bytes& bytes) override {
    ++attempts_;
    if (refusals_ > 0) {
      --refusals_;
      return false;
    }
    return app_->RestoreState(bytes);
  }
  int attempts() const { return attempts_; }

 private:
  HashApp* app_;
  int refusals_;
  int attempts_ = 0;
};

TEST(RecoveryEndToEnd, RefusedRestoreFetchesAgain) {
  check::OracleSuite suite;
  check::RecoveryOracle oracle(&suite);
  RecoveryRig rig(/*seed=*/7);

  auto& coord_node = rig.d->net().AddNode();
  rig.coordinator_id = coord_node.self();
  auto rec_a = rig.Add(rig.MakeOpts(&oracle, false));
  rig.peers = {rec_a.node->self()};
  auto rec_b = rig.Add(rig.MakeOpts(&oracle, true));
  rig.BindCoordinator(coord_node, {rec_a.node->self(), rec_b.node->self()});
  rig.AddTraffic();

  std::unique_ptr<RefusingApp> refusing;
  auto& sched = rig.d->net().scheduler();
  sched.At(TimePoint(Millis(400).count()),
           [&rec_b] { rec_b.node->SetDown(true); });
  sched.At(TimePoint(Millis(600).count()), [&] {
    auto ro = rig.MakeOpts(&oracle, true);
    refusing = std::make_unique<RefusingApp>(rig.apps.back().get(), 1);
    ro.app = refusing.get();
    rig.Revive(rec_b, std::move(ro));
    rec_b.node->SetDown(false);
    rec_b.node->Start();
  });

  rig.d->Start();
  rig.d->RunFor(Millis(1500));

  ASSERT_NE(refusing, nullptr);
  EXPECT_EQ(refusing->attempts(), 2);  // refused, fetched again, accepted
  EXPECT_EQ(rec_b.node->metrics().CounterValue("recovery.mgr.restores"), 2u);
  EXPECT_GT(rec_b.learner->resume_index(), 0u);
  EXPECT_FALSE(rec_b.learner->recovering());
  oracle.Finish();
  EXPECT_TRUE(suite.ok()) << suite.Report();
  EXPECT_GT(oracle.compared(), 0u);
  EXPECT_EQ(oracle.segments(), 2u);  // the refused restore resumed nothing
}

// With every peer unavailable the manager gives up after max_rotations
// and the learner cold-starts from instance 0 — the always-safe
// pre-recovery behaviour.
TEST(RecoveryEndToEnd, AllPeersDeadFallsBackToColdStart) {
  check::OracleSuite suite;
  check::RecoveryOracle oracle(&suite);
  RecoveryRig rig(/*seed=*/3);

  auto& coord_node = rig.d->net().AddNode();
  rig.coordinator_id = coord_node.self();
  auto rec_a = rig.Add(rig.MakeOpts(&oracle, false));
  rig.peers = {rec_a.node->self()};
  auto rec_b = rig.Add(rig.MakeOpts(&oracle, true));
  rig.BindCoordinator(coord_node, {rec_a.node->self(), rec_b.node->self()});
  // No proposers: no traffic, so a cold start is also stream-aligned.

  auto& sched = rig.d->net().scheduler();
  sched.At(TimePoint(Millis(200).count()), [&] {
    rec_b.node->SetDown(true);
    rec_a.node->SetDown(true);  // the only snapshot server dies too
  });
  sched.At(TimePoint(Millis(300).count()), [&] {
    auto ro = rig.MakeOpts(&oracle, true);
    ro.fetch.retry_interval = Millis(5);
    ro.fetch.peer_fail_after = 2;
    ro.fetch.max_rotations = 2;
    rig.Revive(rec_b, std::move(ro));
    rec_b.node->SetDown(false);
    rec_b.node->Start();
  });

  rig.d->Start();
  rig.d->RunFor(Millis(2000));

  EXPECT_FALSE(rec_b.learner->recovering());
  EXPECT_EQ(rec_b.learner->resume_index(), 0u);  // cold start
  oracle.Finish();
  EXPECT_TRUE(suite.ok()) << suite.Report();
}

// A proposer-free deployment still checkpoints: the rings run on skip
// instances alone, and the coordinator's requests get answered (either
// at a skip-driven turn boundary or directly on the request path), so
// the stable frontier advances without any application traffic.
TEST(RecoveryEndToEnd, TrafficFreeStreamStillCheckpoints) {
  RecoveryRig rig(/*seed=*/13);
  auto& coord_node = rig.d->net().AddNode();
  rig.coordinator_id = coord_node.self();
  auto rec_a = rig.Add(rig.MakeOpts(nullptr, false));
  auto* coord = rig.BindCoordinator(coord_node, {rec_a.node->self()});
  rig.d->Start();
  rig.d->RunFor(Millis(500));
  EXPECT_GT(rec_a.learner->checkpoints_taken(), 0u);
  EXPECT_GT(coord->adverts_sent(), 0u);
  EXPECT_GT(coord->stable_frontier(0), 0u);  // skip instances advance it
}

}  // namespace
}  // namespace mrp::recovery
