// Determinism probe: builds a multi-ring deployment on the simulator,
// drives a fixed workload, and dumps the structured trace (JSONL) plus a
// whole-deployment metrics snapshot. The determinism gate (run_gate.py)
// runs this binary several times per seed — including once with a
// perturbed heap — and byte-diffs the outputs: any dependence on wall
// clock, unseeded randomness, unordered-container iteration order or
// heap addresses shows up as a diff.
//
// Flags:
//   --seed <u64>         simulator seed (default 1)
//   --rings <n>          number of rings (default 4)
//   --sites <n>          WAN sites in a full mesh (default 1 = trivial
//                        single-switch topology); rings are pinned to
//                        sites round-robin, so the probe also covers the
//                        topology layer's routing/queueing/loss draws
//   --run-ms <n>         sim time to run, in milliseconds (default 500)
//   --perturb-heap <u64> allocate a salted pattern of decoy blocks before
//                        building the deployment, so every node lands at
//                        a different heap address than in a plain run
//   --recovery           enable the checkpoint & recovery subsystem: a
//                        CheckpointCoordinator + two recoverable
//                        learners, one of which crash-loses its state
//                        mid-run and bootstraps back from its peer's
//                        snapshot — the gate then proves checkpointing,
//                        snapshot transfer and restore are themselves
//                        byte-deterministic (docs/RECOVERY.md)
//   --sessions           enable the session control plane on ring 0: two
//                        session-enabled replicas (one serving lease-local
//                        reads), a lease grantor, an admission gateway and
//                        a session client, with a mid-run duplicate
//                        submit, retry storm, lease pause/resume cycle
//                        and session abandon — the gate then proves
//                        dedup, lease handling and admission control are
//                        themselves byte-deterministic (docs/SESSIONS.md)
//   --reconfig           enable the elastic reconfiguration subsystem
//                        (needs >= 2 rings): a holder-routed,
//                        session-stamped KV client runs against ring 0
//                        while a RepartitionCoordinator splits the upper
//                        half of the key space into ring 1's group
//                        mid-run — seal, chunked state handoff, routing
//                        flip and redirects must all be
//                        byte-deterministic (docs/RECONFIG.md)
//   --workload           replace the per-ring closed-loop proposers with
//                        one WorkloadDriver running the multi-tenant mix
//                        (Zipfian + MMPP-bursty + diurnal tenants) across
//                        every ring — the gate then proves the workload
//                        engine's arrival sampling, key-skew draws and
//                        session multiplexing are byte-deterministic
//                        (docs/WORKLOADS.md)
//   --out-trace <file>   JSONL trace output (required)
//   --out-metrics <file> metrics JSON output (required)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rand.h"
#include "common/trace.h"
#include "multiring/sim_deployment.h"
#include "reconfig/plan.h"
#include "reconfig/repartition.h"
#include "reconfig/ring_view.h"
#include "recovery/checkpoint.h"
#include "recovery/hash_app.h"
#include "recovery/recoverable_learner.h"
#include "ringpaxos/proposer.h"
#include "smr/client.h"
#include "session/admission.h"
#include "session/lease.h"
#include "sim/snapshot_disk.h"
#include "smr/replica.h"
#include "workload/driver.h"

namespace {

using LearnerGroups = std::vector<mrp::ringpaxos::LearnerOptions>;

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::uint64_t FlagU64(int argc, char** argv, const char* flag,
                      std::uint64_t fallback) {
  const char* v = FlagValue(argc, argv, flag);
  return v != nullptr ? std::strtoull(v, nullptr, 0) : fallback;
}

// Shifts heap addresses without touching the deployment itself: allocate
// a salted pseudo-random pattern of blocks, then free every other one so
// later allocations also see a fragmented free list. The survivors are
// returned so they stay live for the whole run.
std::vector<std::unique_ptr<char[]>> PerturbHeap(std::uint64_t salt) {
  mrp::Rng rng(salt);
  std::vector<std::unique_ptr<char[]>> decoys;
  std::vector<std::unique_ptr<char[]>> survivors;
  for (int i = 0; i < 512; ++i) {
    const std::size_t size = 16 + rng.below(4096);
    auto block = std::make_unique<char[]>(size);
    block[0] = static_cast<char>(rng.next());  // force the page in
    if (i % 2 == 0) {
      survivors.push_back(std::move(block));
    } else {
      decoys.push_back(std::move(block));  // freed when this scope ends
    }
  }
  return survivors;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_trace = FlagValue(argc, argv, "--out-trace");
  const char* out_metrics = FlagValue(argc, argv, "--out-metrics");
  if (out_trace == nullptr || out_metrics == nullptr) {
    std::fprintf(stderr,
                 "usage: determinism_probe --out-trace <file> --out-metrics "
                 "<file> [--seed N] [--rings N] [--run-ms N] "
                 "[--perturb-heap SALT]\n");
    return 2;
  }
  const std::uint64_t seed = FlagU64(argc, argv, "--seed", 1);
  const int rings = static_cast<int>(FlagU64(argc, argv, "--rings", 4));
  const int sites = static_cast<int>(FlagU64(argc, argv, "--sites", 1));
  const auto run_ms =
      static_cast<std::int64_t>(FlagU64(argc, argv, "--run-ms", 500));
  const bool recovery = HasFlag(argc, argv, "--recovery");
  const bool sessions = HasFlag(argc, argv, "--sessions");
  const bool reconfig = HasFlag(argc, argv, "--reconfig");
  const bool workload = HasFlag(argc, argv, "--workload");
  if (reconfig && rings < 2) {
    std::fprintf(stderr, "determinism_probe: --reconfig needs --rings >= 2\n");
    return 2;
  }

  std::vector<std::unique_ptr<char[]>> ballast;
  if (FlagValue(argc, argv, "--perturb-heap") != nullptr) {
    ballast = PerturbHeap(FlagU64(argc, argv, "--perturb-heap", 0));
  }

  mrp::Tracer::Instance().Clear();
  mrp::Tracer::Instance().Enable();

  mrp::multiring::DeploymentOptions opts;
  opts.n_rings = rings;
  opts.ring_size = 2;
  opts.net.seed = seed;
  if (sites > 1) {
    std::vector<std::string> names;
    for (int s = 0; s < sites; ++s) names.push_back("s" + std::to_string(s));
    mrp::sim::LinkSpec link;
    link.latency = mrp::Millis(10);
    link.jitter = mrp::Micros(100);
    opts.net.topology = mrp::sim::Topology::FullMesh(names, link);
    for (int r = 0; r < rings; ++r) {
      opts.ring_sites.push_back(static_cast<mrp::sim::SiteId>(r % sites));
    }
  }
  if (recovery) opts.frontier_gated_trim = true;
  mrp::multiring::SimDeployment d(opts);

  // One merge learner over all rings plus a single-ring learner (a
  // one-ring merge learner) in ring 0's site.
  std::vector<int> all_rings;
  for (int r = 0; r < rings; ++r) all_rings.push_back(r);
  d.AddMergeLearner(all_rings);
  d.AddMergeLearner({0}, {}, d.ring_site(0));

  // --recovery: coordinator + two recoverable learners; rec-b crash-loses
  // its state at 40% of the run and bootstraps from rec-a at 60%. Each
  // checkpoints to a simulated disk that outlives the crash. All of it
  // lands in the same trace/metrics outputs the gate byte-compares.
  std::vector<std::unique_ptr<mrp::recovery::HashApp>> apps;
  std::vector<std::unique_ptr<mrp::sim::SimSnapshotPersistence>> disks;
  mrp::sim::SimNode* rec_a = nullptr;
  mrp::sim::SimNode* rec_b = nullptr;
  mrp::NodeId coord_id = mrp::kNoNode;
  auto make_rec = [&](bool target, LearnerGroups groups) {
    mrp::recovery::RecoverableLearner::Options ro;
    apps.push_back(std::make_unique<mrp::recovery::HashApp>());
    auto* app = apps.back().get();
    ro.app = app;
    ro.merge.on_deliver = [app](mrp::GroupId g,
                                const mrp::paxos::ClientMsg& m) {
      app->Apply(g, m);
    };
    ro.merge.groups = std::move(groups);
    ro.coordinator = coord_id;
    ro.persistence = disks[target ? 1 : 0].get();
    if (target) ro.fetch.peers = {rec_a->self()};
    return ro;
  };
  if (recovery) {
    auto& coord_node = d.net().AddNode();
    coord_id = coord_node.self();
    for (auto* rec : {&rec_a, &rec_b}) {
      d.AddLearnerNode(all_rings, [&](mrp::sim::SimNode& node,
                                      LearnerGroups groups) {
        *rec = &node;
        disks.push_back(
            std::make_unique<mrp::sim::SimSnapshotPersistence>(node));
        return std::make_unique<mrp::recovery::RecoverableLearner>(
            make_rec(rec == &rec_b, std::move(groups)));
      });
    }
    mrp::recovery::CheckpointCoordinator::Options co;
    co.interval = mrp::Millis(100);
    co.learners = {rec_a->self(), rec_b->self()};
    for (int r = 0; r < rings; ++r) {
      co.rings.emplace_back(d.ring(r).ring, d.ring(r).control_channel);
    }
    coord_node.BindProtocol(
        std::make_unique<mrp::recovery::CheckpointCoordinator>(std::move(co)));
    auto& sched = d.net().scheduler();
    sched.At(mrp::TimePoint(mrp::Millis(run_ms * 2 / 5).count()),
             [&rec_b] { rec_b->SetDown(true); });
    sched.At(mrp::TimePoint(mrp::Millis(run_ms * 3 / 5).count()), [&] {
      auto ro = make_rec(true, d.spec().LearnerGroups(all_rings));
      ro.recover_on_start = true;
      rec_b->ReplaceProtocol(
          std::make_unique<mrp::recovery::RecoverableLearner>(std::move(ro)));
      rec_b->SetDown(false);
      rec_b->Start();
    });
  }

  // --sessions: the control plane of docs/SESSIONS.md on ring 0, with a
  // scripted duplicate / retry storm / lease drop / abandon sequence so
  // dedup suppression, read fallback and generation bumps all land in
  // the byte-compared outputs.
  mrp::smr::KvClient* session_client = nullptr;
  mrp::sim::SimNode* session_client_node = nullptr;
  mrp::session::LeaseGrantor* lease_grantor = nullptr;
  mrp::sim::SimNode* lease_grantor_node = nullptr;
  if (sessions) {
    std::vector<mrp::sim::SimNode*> replica_nodes;
    for (int r = 0; r < 2; ++r) {
      d.AddLearnerNode({0}, [&](mrp::sim::SimNode& node, LearnerGroups groups) {
        mrp::smr::ReplicaConfig rc;
        rc.partition = 0;
        rc.partition_ring = groups[0];
        rc.respond = (r == 0);
        rc.sessions = true;
        rc.serve_local_reads = (r == 1);
        replica_nodes.push_back(&node);
        return std::make_unique<mrp::smr::Replica>(rc);
      });
    }
    auto& gw_node = d.net().AddNode();
    {
      mrp::session::GatewayConfig gc;
      gc.ring = d.ring(0).ring;
      gc.coordinator = d.ring(0).ring_members[0];
      gc.rate_per_sec = 2000;
      gc.burst = 32;
      gc.max_queue = 32;
      gw_node.BindProtocol(std::make_unique<mrp::session::Gateway>(gc));
      d.net().Subscribe(gw_node.self(), d.ring(0).control_channel);
    }
    lease_grantor =
        d.AddLearnerNode({0}, [&](mrp::sim::SimNode& node, LearnerGroups) {
          mrp::session::LeaseGrantorConfig lc;
          lc.ring = d.ring(0).ring;
          lc.group = d.ring(0).group;
          lc.holder = replica_nodes[1]->self();
          lease_grantor_node = &node;
          return std::make_unique<mrp::session::LeaseGrantor>(lc);
        });
    {
      mrp::smr::KvClientConfig sc;
      sc.session_id = 1;
      sc.rings = {d.ring(0)};
      sc.gateway = gw_node.self();
      sc.read_replica = replica_nodes[1]->self();
      sc.window = 4;
      sc.query_ratio = 0.5;
      auto cl = std::make_unique<mrp::smr::KvClient>(sc);
      session_client = cl.get();
      session_client_node = &d.AddClient(std::move(cl), {0});
    }
    auto& sched = d.net().scheduler();
    auto at_frac = [run_ms](std::int64_t num, std::int64_t den) {
      return mrp::TimePoint(mrp::Millis(run_ms * num / den).count());
    };
    sched.At(at_frac(3, 10), [session_client, session_client_node] {
      session_client->TriggerDuplicate(*session_client_node);
    });
    sched.At(at_frac(4, 10), [lease_grantor] { lease_grantor->Pause(); });
    sched.At(at_frac(5, 10), [session_client, session_client_node] {
      session_client->TriggerRetryStorm(*session_client_node);
    });
    sched.At(at_frac(6, 10), [lease_grantor, lease_grantor_node] {
      lease_grantor->Resume(*lease_grantor_node);
    });
    sched.At(at_frac(7, 10), [session_client, session_client_node] {
      session_client->TriggerAbandon(*session_client_node);
    });
  }

  // --reconfig: a live group split on rings 0/1 (docs/RECONFIG.md). Two
  // session-enabled source replicas serve ring 0's group; a holder-routed,
  // session-stamped KV client drives writes across the whole key space;
  // at 30% of the run a RepartitionCoordinator seals the upper half of
  // the key space out of ring 0's group, hands the state off to a target
  // replica on ring 1 over the chunked snapshot transfer and flips the
  // routing via RoutingUpdate. The seal cut, handoff chunk order,
  // redirect traffic and the client's re-dispatches all land in the
  // byte-compared trace/metrics outputs.
  mrp::reconfig::RingHolder holder;
  if (reconfig) {
    constexpr std::uint64_t kPlanId = 41;
    constexpr std::uint64_t kSplitLo = 500000;
    constexpr std::uint64_t kKeyMax = 999999;
    holder.Install(mrp::reconfig::RingConfiguration(
        1, {mrp::reconfig::RouteFor(d.ring(0))},
        {{0, kKeyMax, d.ring(0).group}}));
    std::vector<mrp::sim::SimNode*> source_nodes;
    for (int r = 0; r < 2; ++r) {
      d.AddLearnerNode({0}, [&](mrp::sim::SimNode& node, LearnerGroups groups) {
        mrp::smr::ReplicaConfig rc;
        rc.partition = d.ring(0).group;
        rc.partition_ring = groups[0];
        rc.respond = (r == 0);
        rc.sessions = true;
        source_nodes.push_back(&node);
        return std::make_unique<mrp::smr::Replica>(rc);
      });
    }
    mrp::sim::SimNode* target_node = nullptr;
    d.AddLearnerNode({1}, [&](mrp::sim::SimNode& node, LearnerGroups groups) {
      mrp::smr::ReplicaConfig rc;
      rc.partition = d.ring(1).group;
      rc.range = {kSplitLo, kKeyMax};
      rc.partition_ring = groups[0];
      rc.respond = true;
      rc.sessions = true;
      rc.handoff_plan = kPlanId;
      rc.bootstrap_peers = {source_nodes[0]->self(), source_nodes[1]->self()};
      target_node = &node;
      return std::make_unique<mrp::smr::Replica>(rc);
    });
    mrp::sim::SimNode* client_node = nullptr;
    {
      mrp::smr::KvClientConfig cc;
      cc.rings.push_back(d.ring(0));
      cc.window = 4;
      cc.holder = &holder;
      cc.session_id = 5;
      client_node =
          &d.AddClient(std::make_unique<mrp::smr::KvClient>(cc), {0, 1});
    }
    {
      auto& node = d.net().AddNode();
      d.net().Subscribe(node.self(), d.ring(0).control_channel);
      mrp::reconfig::RepartitionConfig pc;
      pc.plan = mrp::reconfig::ReconfigPlan::Split(
          kPlanId, d.ring(0).group, d.ring(1).group, kSplitLo, kKeyMax,
          d.ring(1).ring);
      pc.source_ring = d.ring(0);
      pc.next = mrp::reconfig::RingConfiguration(
          2,
          {mrp::reconfig::RouteFor(d.ring(0)),
           mrp::reconfig::RouteFor(d.ring(1))},
          {{0, kSplitLo - 1, d.ring(0).group},
           {kSplitLo, kKeyMax, d.ring(1).group}});
      pc.target_replica = target_node->self();
      pc.notify = {client_node->self()};
      pc.start_delay = mrp::Millis(run_ms * 3 / 10);
      node.BindProtocol(
          std::make_unique<mrp::reconfig::RepartitionCoordinator>(pc));
    }
  }

  // --workload: the multi-tenant workload engine instead of plain
  // closed-loop proposers; otherwise two closed-loop clients per ring.
  if (workload) {
    mrp::workload::DriverConfig wc;
    wc.mix = mrp::workload::DefaultMix();
    for (int r : all_rings) wc.rings.push_back(d.ring(r));
    auto owned = std::make_unique<mrp::workload::WorkloadDriver>(wc);
    auto* driver = owned.get();
    d.AddClient(std::move(owned), all_rings);
    // Deliveries feed back into the driver's per-tenant accounting, so
    // the metrics snapshot the gate byte-compares covers both ends.
    mrp::multiring::MergeLearner::Options mo;
    mo.on_deliver = [driver, &d](mrp::GroupId,
                                 const mrp::paxos::ClientMsg& m) {
      driver->RecordDelivery(d.net().now(), m);
    };
    d.AddMergeLearner(all_rings, std::move(mo));
  } else {
    for (int r = 0; r < rings; ++r) {
      for (int c = 0; c < 2; ++c) {
        mrp::ringpaxos::ProposerConfig pc;
        pc.payload_size = 512;
        pc.max_outstanding = 8;
        d.AddProposer(r, pc);
      }
    }
  }

  d.Start();
  d.RunFor(mrp::Millis(run_ms));

  std::ofstream metrics(out_metrics);
  if (!metrics) {
    std::fprintf(stderr, "determinism_probe: cannot write %s\n", out_metrics);
    return 2;
  }
  d.net().WriteMetricsJson(metrics);
  metrics.close();

  mrp::Tracer& tracer = mrp::Tracer::Instance();
  if (tracer.size() == 0) {
    std::fprintf(stderr, "determinism_probe: trace is empty (no events?)\n");
    return 2;
  }
  if (!tracer.WriteJsonlFile(out_trace)) {
    std::fprintf(stderr, "determinism_probe: cannot write %s\n", out_trace);
    return 2;
  }
  std::printf("determinism_probe: seed=%llu rings=%d events=%zu\n",
              static_cast<unsigned long long>(seed), rings, tracer.size());
  return 0;
}
