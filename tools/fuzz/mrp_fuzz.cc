// Deterministic chaos fuzzer for Multi-Ring Paxos (docs/CHECKING.md).
//
// Each seed draws a timed fault schedule (src/check/fault_plan.h),
// executes it against a full simulated deployment with the protocol
// invariant oracles (src/check/oracles.h) tapped into every role, and —
// on a violation — greedily shrinks the schedule and writes a
// self-contained JSON replay artifact that `--replay` reproduces
// byte-identically (the oracle feed digest must match).
//
// Modes:
//   mrp_fuzz --seeds N [--start-seed S] [--budget majority|anything]
//            [--rings R --ring-size K --spares P --sites S --smr]
//            [--artifact-dir DIR]        sweep seeds, exit 1 on violation
//   mrp_fuzz --replay FILE              re-run an artifact, verify digest
//   mrp_fuzz --self-check               inject an agreement bug, verify
//                                       the oracles catch it, the shrinker
//                                       reduces it, and replay is exact
//   mrp_fuzz --codec-fuzz N             mutate encoded frames through
//                                       net::DecodeMessage (crash = bug)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/fault_plan.h"
#include "check/oracles.h"
#include "check/reconfig_oracle.h"
#include "check/recovery_oracle.h"
#include "check/session_oracle.h"
#include "common/rand.h"
#include "common/trace.h"
#include "common/types.h"
#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"
#include "net/codec.h"
#include "paxos/messages.h"
#include "reconfig/repartition.h"
#include "recovery/checkpoint.h"
#include "recovery/hash_app.h"
#include "recovery/recoverable_learner.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"
#include "session/admission.h"
#include "session/lease.h"
#include "session/messages.h"
#include "sim/snapshot_disk.h"
#include "sim/topology.h"
#include "smr/client.h"
#include "smr/replica.h"

namespace mrp {
namespace {

using check::DeploymentShape;
using check::FaultBudget;
using check::FaultEvent;
using check::FaultPlan;
using check::OracleSuite;
using check::ReplayArtifact;
using multiring::DeploymentOptions;
using multiring::MergeLearner;
using multiring::SimDeployment;

// Ambient loss every run starts from; loss bursts raise it temporarily.
constexpr double kBaseLoss = 0.01;
// Settle time after the last fault heals before Finish() runs.
constexpr Duration kQuiesce = Seconds(3);
// Liveness floor under the majority-preserving budget: distinct client
// messages the acking learner must have delivered by the end.
constexpr std::size_t kMinProgress = 100;

// --probe ring:instance — dump every learner's decide of one instance
// to stderr (diagnosing an agreement violation from a replay artifact).
struct Probe {
  bool active = false;
  RingId ring = 0;
  InstanceId instance = 0;
};
Probe g_probe;

void MaybeProbe(const std::string& learner, RingId ring, InstanceId inst,
                const paxos::Value& v) {
  if (!g_probe.active || ring != g_probe.ring || inst != g_probe.instance) {
    return;
  }
  std::fprintf(stderr, "probe: %s ring=%u inst=%llu kind=%s skips=%llu msgs=",
               learner.c_str(), ring, static_cast<unsigned long long>(inst),
               v.is_skip() ? "skip" : "batch",
               static_cast<unsigned long long>(v.skip_count));
  for (const auto& m : v.msgs) {
    std::fprintf(stderr, "(g%u p%u s%llu)", m.group, m.proposer,
                 static_cast<unsigned long long>(m.seq));
  }
  std::fprintf(stderr, "\n");
}

struct RunStats {
  bool violated = false;
  std::string first_oracle;
  std::vector<check::Violation> violations;
  std::uint64_t digest = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t session_applies = 0;  // dedup-passing applies (with_smr)
  std::uint64_t local_reads = 0;      // lease-served local reads (with_smr)
  std::uint64_t reconfig_applies = 0;  // stamped applies the split oracle saw
  bool repart_done = false;            // the live split ran to completion
  std::string report;

  bool Has(const std::string& oracle) const {
    for (const auto& v : violations) {
      if (v.oracle == oracle) return true;
    }
    return false;
  }
};

sim::SimNode* ResolveCoordinator(SimDeployment& d, int ring) {
  for (auto* n : d.ring_universe(ring)) {
    if (n->down()) continue;
    auto* rn = n->protocol_as<ringpaxos::RingNode>();
    if (rn != nullptr && rn->is_coordinator()) return n;
  }
  // Mid-election: fall back to the initial coordinator.
  return d.coordinator_node(ring);
}

// Executes one plan against a fresh deployment and returns what the
// oracles saw. Fully deterministic in (plan, inject_corrupt).
RunStats RunPlan(const FaultPlan& plan, InstanceId inject_corrupt,
                 bool verbose) {
  // With --trace, each run starts from an empty buffer so the exported
  // JSONL covers exactly the final run.
  if (Tracer::Instance().enabled()) Tracer::Instance().Clear();
  const DeploymentShape& shape = plan.shape;

  DeploymentOptions opts;
  opts.n_rings = shape.n_rings;
  opts.ring_size = shape.ring_size;
  opts.n_spares = shape.n_spares;
  opts.disk = true;  // recoverable acceptors; enables disk-stall faults
  // Safety-tied trimming: acceptors only trim below the coordinator's
  // stable checkpoint frontier (exercises the recovery subsystem's
  // retention guarantee on every fuzz run).
  opts.frontier_gated_trim = true;
  opts.net.seed = plan.seed;
  opts.net.loss_probability = kBaseLoss;
  opts.lambda_per_sec = 4000;
  opts.suspect_after = Millis(50);
  if (shape.n_sites > 1) {
    std::vector<std::string> names;
    for (int s = 0; s < shape.n_sites; ++s) {
      names.push_back("site" + std::to_string(s));
    }
    sim::LinkSpec link;
    link.latency = Millis(2);
    link.jitter = Micros(200);
    opts.net.topology = sim::Topology::FullMesh(names, link);
    for (int r = 0; r < shape.n_rings; ++r) {
      opts.ring_sites.push_back(static_cast<sim::SiteId>(r % shape.n_sites));
    }
  }

  SimDeployment d(opts);
  OracleSuite oracle(&d.net().metrics());

  // Three learner vantage points: two subscribed to everything (one
  // acking — it closes the proposers' loops), one to ring 0 only. The
  // second all-rings learner carries the --self-check corruption hook.
  std::vector<int> all_rings;
  for (int r = 0; r < shape.n_rings; ++r) all_rings.push_back(r);
  std::set<std::pair<NodeId, std::uint64_t>> delivered_by_a;

  // Reconfiguration infra (docs/RECONFIG.md) is built only when the plan
  // carries reconfig events, so earlier artifacts replay byte-identically.
  bool has_reconfig_events = false;
  bool has_split = false;
  TimePoint split_at{0};
  for (const FaultEvent& ev : plan.events) {
    if (ev.kind >= FaultEvent::Kind::kSplitLive) has_reconfig_events = true;
    if (ev.kind == FaultEvent::Kind::kSplitLive && !has_split) {
      has_split = true;
      split_at = ev.at;
    }
  }
  const bool reconfig_on =
      has_reconfig_events && shape.with_smr && shape.n_rings >= 2;
  check::ReconfigOracle reconfig_oracle(&oracle);
  reconfig::RingHolder client_holder;  // the KV client's routing view
  constexpr std::uint64_t kSplitPlanId = 77;
  constexpr std::uint64_t kSplitLo = 500000;
  constexpr std::uint64_t kKeyMax = 999999;  // Partitioning space - 1

  auto add_learner = [&](const std::string& name,
                         const std::vector<int>& rings, bool acks,
                         InstanceId corrupt) -> MergeLearner* {
    std::vector<GroupId> groups;
    for (int r : rings) groups.push_back(d.ring(r).group);
    MergeLearner::Options mo;
    mo.send_delivery_acks = acks;
    const int idx = oracle.RegisterLearner(name, groups);
    // Merge-order pin for the split oracle: fully subscribed learners'
    // per-group delivery sequences must stay prefix-consistent across
    // the reconfiguration.
    const int rl = reconfig_on ? reconfig_oracle.RegisterLearner(name) : -1;
    mo.on_decide = [&oracle, idx, name](RingId ring, InstanceId inst,
                                        const paxos::Value& v) {
      MaybeProbe(name, ring, inst, v);
      oracle.OnDecide(idx, ring, inst, v);
    };
    mo.on_deliver = [&oracle, &reconfig_oracle, &delivered_by_a, idx, rl,
                     acks](GroupId g, const paxos::ClientMsg& m) {
      oracle.OnDeliver(idx, g, m);
      if (acks) delivered_by_a.emplace(m.proposer, m.seq);
      if (rl >= 0) reconfig_oracle.OnDeliver(rl, g, m.Fingerprint());
    };
    return d.AddLearnerNode(
        rings, [&](sim::SimNode&, std::vector<ringpaxos::LearnerOptions> lo) {
          if (corrupt != 0) lo.front().test_corrupt_instance = corrupt;
          mo.groups = std::move(lo);
          return std::make_unique<MergeLearner>(std::move(mo));
        });
  };
  MergeLearner* merge_a = add_learner("merge-a", all_rings, /*acks=*/true, 0);
  add_learner("merge-b", all_rings, /*acks=*/false, inject_corrupt);
  add_learner("ring0-only", {0}, /*acks=*/false, 0);
  if (reconfig_on) {
    // A split never reorders the ring streams themselves (the seal is
    // just a command in the source stream), so every group's merge order
    // is pinned across the move.
    for (int r : all_rings) reconfig_oracle.MarkUnaffected(d.ring(r).group);
  }

  // Two recovery-enabled learners (docs/RECOVERY.md): rec-a is the
  // never-crashed reference (and snapshot server), rec-b the crash
  // target of kLearnerCrash faults. Their checkpoints drive the
  // coordinator's stable frontier, which gates all acceptor trimming.
  check::RecoveryOracle recovery_oracle(&oracle);
  auto& coord_node = d.net().AddNode();
  // HashApps and simulated snapshot disks outlive crash-replaced
  // protocol objects; revives push a fresh app (state loss) that the
  // restore repopulates.
  std::vector<std::unique_ptr<recovery::HashApp>> apps;
  std::vector<std::unique_ptr<sim::SimSnapshotPersistence>> disks;
  auto add_recoverable = [&](recovery::RecoverableLearner::Options ro) {
    sim::SimNode* node = nullptr;
    d.AddLearnerNode(all_rings, [&](sim::SimNode& n,
                                    std::vector<ringpaxos::LearnerOptions> lo) {
      node = &n;
      disks.push_back(std::make_unique<sim::SimSnapshotPersistence>(n));
      ro.persistence = disks.back().get();
      ro.merge.groups = std::move(lo);
      return std::make_unique<recovery::RecoverableLearner>(std::move(ro));
    });
    return node;
  };
  const int rec_a_idx = oracle.RegisterLearner(
      "rec-a", std::vector<GroupId>(all_rings.begin(), all_rings.end()));
  recovery::RecoverableLearner::Options ra;
  ra.coordinator = coord_node.self();
  apps.push_back(std::make_unique<recovery::HashApp>());
  recovery::HashApp* app_a = apps.back().get();
  ra.app = app_a;
  ra.merge.on_decide = [&oracle, rec_a_idx](RingId ring, InstanceId inst,
                                            const paxos::Value& v) {
    MaybeProbe("rec-a", ring, inst, v);
    oracle.OnDecide(rec_a_idx, ring, inst, v);
  };
  ra.merge.on_deliver = [&oracle, &recovery_oracle, rec_a_idx,
                         app_a](GroupId g, const paxos::ClientMsg& m) {
    oracle.OnDeliver(rec_a_idx, g, m);
    recovery_oracle.OnReferenceDeliver(g, m);
    app_a->Apply(g, m);
  };
  sim::SimNode* rec_a = add_recoverable(std::move(ra));

  auto make_rec_b_opts = [&]() {
    recovery::RecoverableLearner::Options rb;
    rb.coordinator = coord_node.self();
    rb.fetch.peers = {rec_a->self()};
    apps.push_back(std::make_unique<recovery::HashApp>());
    auto* app = apps.back().get();
    rb.app = app;
    rb.merge.on_deliver = [&recovery_oracle, app](GroupId g,
                                                  const paxos::ClientMsg& m) {
      recovery_oracle.OnRecoveredDeliver(g, m);
      app->Apply(g, m);
    };
    rb.on_restore = [&recovery_oracle](std::uint64_t resume_index,
                                       const recovery::Checkpoint&) {
      recovery_oracle.BeginRecovered(resume_index);
    };
    return rb;
  };
  sim::SimNode* rec_b = add_recoverable(make_rec_b_opts());

  recovery::CheckpointCoordinator::Options co;
  co.interval = Millis(200);
  co.learners = {rec_a->self(), rec_b->self()};
  for (int r : all_rings) {
    co.rings.emplace_back(d.ring(r).ring, d.ring(r).control_channel);
  }
  coord_node.BindProtocol(
      std::make_unique<recovery::CheckpointCoordinator>(std::move(co)));

  // Two closed-loop proposers per ring.
  std::vector<ringpaxos::Proposer*> props;
  for (int r = 0; r < shape.n_rings; ++r) {
    for (int c = 0; c < 2; ++c) {
      ringpaxos::ProposerConfig pc;
      pc.max_outstanding = 6;
      pc.payload_size = 512;
      pc.retry_timeout = Millis(150);
      pc.on_submit = [&oracle](const paxos::ClientMsg& m) {
        oracle.OnPropose(m);
      };
      props.push_back(d.AddProposer(r, pc));
    }
  }

  // Optional KV service on partition 0 (ring 0): two session-enabled
  // replicas whose apply streams feed the SMR prefix-consistency oracle
  // (and whose session taps feed the SessionOracle), one closed-loop KV
  // client, plus the session control plane (docs/SESSIONS.md): an
  // admission gateway fronting ring 0's coordinator, a lease grantor
  // with replica1 as the configured lease holder, and a session client
  // whose reads go to replica1 first.
  check::SessionOracle session_oracle(&oracle);
  std::vector<smr::Replica*> replicas;
  std::vector<sim::SimNode*> replica_nodes;
  smr::KvClient* kv_client = nullptr;
  sim::SimNode* kv_client_node = nullptr;
  MergeLearner* observer = nullptr;  // resubscribe-storm target
  sim::SimNode* reconfig_target_node = nullptr;
  reconfig::RepartitionCoordinator* repart = nullptr;
  sim::SimNode* repart_node = nullptr;
  smr::KvClient* session_client = nullptr;
  sim::SimNode* session_client_node = nullptr;
  session::LeaseGrantor* lease_grantor = nullptr;
  sim::SimNode* lease_grantor_node = nullptr;
  if (shape.with_smr) {
    for (int r = 0; r < 2; ++r) {
      replicas.push_back(d.AddLearnerNode(
          {0}, [&](sim::SimNode& node,
                   std::vector<ringpaxos::LearnerOptions> groups) {
            replica_nodes.push_back(&node);
            smr::ReplicaConfig rc;
            rc.partition = 0;
            rc.partition_ring = groups[0];
            rc.respond = (r == 0);
            rc.sessions = true;
            rc.serve_local_reads = (r == 1);  // replica1 is the lease holder
            const int idx =
                oracle.RegisterReplica("replica" + std::to_string(r), 0);
            rc.on_apply = [&oracle, idx](const smr::Command& cmd) {
              oracle.OnSmrApply(idx, cmd);
            };
            const int sidx =
                session_oracle.RegisterReplica("replica" + std::to_string(r));
            const int ridx = reconfig_on
                                 ? reconfig_oracle.RegisterReplica(
                                       "replica" + std::to_string(r),
                                       d.ring(0).group)
                                 : -1;
            rc.on_session_apply = [&session_oracle, &reconfig_oracle, sidx,
                                   ridx](std::uint64_t sid, std::uint64_t seq) {
              session_oracle.OnSessionApply(sidx, sid, seq);
              if (ridx >= 0) reconfig_oracle.OnSessionApply(ridx, sid, seq);
            };
            if (r == 1) {
              rc.on_local_read = [&session_oracle, sidx](
                                     std::uint64_t epoch, bool lease_valid,
                                     InstanceId grant_point,
                                     InstanceId frontier) {
                session_oracle.OnLocalRead(sidx, epoch, lease_valid,
                                           grant_point, frontier);
              };
            }
            return std::make_unique<smr::Replica>(rc);
          }));
    }
    {
      smr::KvClientConfig cc;
      cc.rings.push_back(d.ring(0));
      cc.window = 2;
      cc.on_submit = [&oracle](const paxos::ClientMsg& m) {
        oracle.OnPropose(m);
      };
      if (reconfig_on) {
        // Holder-routed, session-stamped traffic: redirects re-dispatch
        // across the split and the oracle pins exactly-once + no-loss.
        cc.holder = &client_holder;
        cc.session_id = 3;
        cc.on_complete = [&reconfig_oracle](std::uint64_t sid,
                                            std::uint64_t seq) {
          reconfig_oracle.OnClientComplete(sid, seq);
        };
      }
      auto client = std::make_unique<smr::KvClient>(cc);
      kv_client = client.get();
      // Holder-routed traffic reaches ring 1 after the split.
      std::vector<int> heard{0};
      if (reconfig_on) heard = all_rings;
      kv_client_node = &d.AddClient(std::move(client), heard);
    }
    // Admission gateway: the session client's submissions funnel through
    // it; retry storms overflow the token bucket and exercise the
    // queue/shed/Rejected path without starving steady-state traffic.
    NodeId gateway_id = kNoNode;
    {
      auto& node = d.net().AddNode();
      session::GatewayConfig gc;
      gc.ring = d.ring(0).ring;
      gc.coordinator = d.ring(0).ring_members[0];
      gc.rate_per_sec = 3000;
      gc.burst = 64;
      gc.max_queue = 64;
      node.BindProtocol(std::make_unique<session::Gateway>(gc));
      d.net().Subscribe(node.self(), d.ring(0).control_channel);
      gateway_id = node.self();
    }
    lease_grantor = d.AddLearnerNode(
        {0}, [&](sim::SimNode& node, std::vector<ringpaxos::LearnerOptions>) {
          session::LeaseGrantorConfig lc;
          lc.ring = d.ring(0).ring;
          lc.group = d.ring(0).group;
          lc.holder = replica_nodes[1]->self();
          lease_grantor_node = &node;
          return std::make_unique<session::LeaseGrantor>(lc);
        });
    {
      smr::KvClientConfig sc;
      sc.session_id = 1;
      sc.rings = {d.ring(0)};
      sc.gateway = gateway_id;
      sc.read_replica = replica_nodes[1]->self();
      sc.window = 4;
      sc.query_ratio = 0.5;
      sc.on_submit = [&oracle](const paxos::ClientMsg& m) {
        oracle.OnPropose(m);
      };
      auto cl = std::make_unique<smr::KvClient>(sc);
      session_client = cl.get();
      session_client_node = &d.AddClient(std::move(cl), {0});
    }
    if (reconfig_on) {
      // Group 0 owns the whole key space until the split moves the
      // upper half to ring 1's group.
      client_holder.Install(reconfig::RingConfiguration(
          1, {reconfig::RouteFor(d.ring(0))},
          {{0, kKeyMax, d.ring(0).group}}));

      // Target-partition replica: bootstraps from the sealed handoff
      // (chunked snapshot transfer from either source replica) and
      // answers the coordinator's completion probes.
      d.AddLearnerNode(
          {1}, [&](sim::SimNode& node,
                   std::vector<ringpaxos::LearnerOptions> groups) {
            reconfig_target_node = &node;
            smr::ReplicaConfig rc;
            rc.partition = d.ring(1).group;
            rc.range = {kSplitLo, kKeyMax};
            rc.partition_ring = groups[0];
            rc.respond = true;
            rc.sessions = true;
            rc.handoff_plan = kSplitPlanId;
            rc.bootstrap_peers = {replica_nodes[0]->self(),
                                  replica_nodes[1]->self()};
            const int idx = oracle.RegisterReplica("target", 1);
            rc.on_apply = [&oracle, idx](const smr::Command& cmd) {
              oracle.OnSmrApply(idx, cmd);
            };
            const int sidx = session_oracle.RegisterReplica("target");
            const int ridx =
                reconfig_oracle.RegisterReplica("target", d.ring(1).group);
            rc.on_session_apply = [&session_oracle, &reconfig_oracle, sidx,
                                   ridx](std::uint64_t sid, std::uint64_t seq) {
              session_oracle.OnSessionApply(sidx, sid, seq);
              reconfig_oracle.OnSessionApply(ridx, sid, seq);
            };
            return std::make_unique<smr::Replica>(rc);
          });

      // Observer merge learner: the resubscribe-storm target. Its
      // subscribe cuts and decides feed the early-delivery oracle; it
      // is deliberately NOT merge-order pinned (unsubscribed stretches
      // leave legitimate gaps in its streams).
      {
        MergeLearner::Options mo;
        std::map<GroupId, RingId> ring_of;
        for (int r : all_rings) ring_of[d.ring(r).group] = d.ring(r).ring;
        const int obs = reconfig_oracle.RegisterLearner("observer");
        mo.on_decide = [&reconfig_oracle, obs](RingId ring, InstanceId inst,
                                               const paxos::Value&) {
          reconfig_oracle.OnDecide(obs, ring, inst);
        };
        mo.on_subscription_change =
            [&reconfig_oracle, obs, ring_of](GroupId g, bool joined,
                                             InstanceId cut) {
              if (!joined) return;
              auto it = ring_of.find(g);
              if (it != ring_of.end()) {
                reconfig_oracle.OnSubscribeCut(obs, it->second, cut);
              }
            };
        observer = d.AddMergeLearner(all_rings, std::move(mo));
      }

      // The repartition coordinator, armed to begin at the split
      // event's time. Routing flips reach the KV client as
      // RoutingUpdate messages (the wire path, not a shared holder).
      if (has_split) {
        auto& node = d.net().AddNode();
        d.net().Subscribe(node.self(), d.ring(0).control_channel);
        reconfig::RepartitionConfig pc;
        pc.plan = reconfig::ReconfigPlan::Split(
            kSplitPlanId, d.ring(0).group, d.ring(1).group, kSplitLo,
            kKeyMax, d.ring(1).ring);
        pc.source_ring = d.ring(0);
        pc.next = reconfig::RingConfiguration(
            2, {reconfig::RouteFor(d.ring(0)), reconfig::RouteFor(d.ring(1))},
            {{0, kSplitLo - 1, d.ring(0).group},
             {kSplitLo, kKeyMax, d.ring(1).group}});
        pc.target_replica = reconfig_target_node->self();
        pc.notify = {kv_client_node->self()};
        pc.start_delay = Duration(split_at.count());
        pc.on_submit = [&oracle](const paxos::ClientMsg& m) {
          oracle.OnPropose(m);
        };
        auto co = std::make_unique<reconfig::RepartitionCoordinator>(pc);
        repart = co.get();
        repart_node = &node;
        node.BindProtocol(std::move(co));
      }
    }
  }

  d.Start();

  // ---- Execute the schedule ----
  // Loss bursts stack: the effective probability is the strongest
  // active burst (never below ambient). Heals run as scheduler events.
  std::multiset<double> active_loss;
  auto apply_loss = [&] {
    const double burst = active_loss.empty() ? 0.0 : *active_loss.rbegin();
    d.net().SetLossProbability(std::max(kBaseLoss, burst));
  };
  auto& sched = d.net().scheduler();
  TimePoint last_end{0};
  for (const FaultEvent& ev : plan.events) {
    d.net().RunUntil(ev.at);
    const TimePoint heal_at = ev.at + ev.duration;
    last_end = std::max(last_end, heal_at);
    if (verbose) {
      std::fprintf(stderr, "  [%8.3fs] %s ring=%d member=%d dur=%.3fs\n",
                   static_cast<double>(ev.at.count()) * 1e-9,
                   check::KindName(ev.kind), ev.ring, ev.member,
                   static_cast<double>(ev.duration.count()) * 1e-9);
    }
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash: {
        auto* node = d.acceptor_node(ev.ring, ev.member);
        node->SetDown(true);
        sched.At(heal_at, [node] { node->SetDown(false); });
        break;
      }
      case FaultEvent::Kind::kCoordKill: {
        auto* node = ResolveCoordinator(d, ev.ring);
        node->SetDown(true);
        sched.At(heal_at, [node] { node->SetDown(false); });
        break;
      }
      case FaultEvent::Kind::kLossBurst: {
        const double loss = ev.loss;
        active_loss.insert(loss);
        apply_loss();
        // Erase by value: the end-of-run heal-all clears the set, and a
        // straggling heal event firing after that must be a no-op.
        sched.At(heal_at, [&active_loss, &apply_loss, loss] {
          auto it = active_loss.find(loss);
          if (it != active_loss.end()) active_loss.erase(it);
          apply_loss();
        });
        break;
      }
      case FaultEvent::Kind::kDiskStall: {
        auto* disk = d.disk_storage(ev.ring, ev.member);
        if (disk != nullptr) disk->StallUntil(d.net().now() + ev.duration);
        break;
      }
      case FaultEvent::Kind::kPartition: {
        const auto a = static_cast<sim::SiteId>(ev.site_a);
        const auto b = static_cast<sim::SiteId>(ev.site_b);
        d.net().SetLinkUp(a, b, false);
        sched.At(heal_at, [&d, a, b] { d.net().SetLinkUp(a, b, true); });
        break;
      }
      case FaultEvent::Kind::kLearnerCrash: {
        // Crash-with-state-loss of the recovery target: at heal time a
        // FRESH protocol object bootstraps from rec-a's snapshot. The
        // replace happens while still down (clears timers without
        // running OnStart), then the node resumes and starts.
        rec_b->SetDown(true);
        sched.At(heal_at, [&d, rec_b, &disks, &make_rec_b_opts, &all_rings] {
          if (!rec_b->down()) return;  // overlapping crash healed us
          auto rb = make_rec_b_opts();
          rb.recover_on_start = true;
          rb.persistence = disks[1].get();
          rb.merge.groups = d.spec().LearnerGroups(all_rings);
          rec_b->ReplaceProtocol(
              std::make_unique<recovery::RecoverableLearner>(std::move(rb)));
          rec_b->SetDown(false);
          rec_b->Start();
        });
        break;
      }
      // Client-side session events: no-ops unless the shape runs SMR
      // (the generator and parser only emit them for with_smr shapes).
      case FaultEvent::Kind::kDuplicateSubmit: {
        if (session_client != nullptr) {
          session_client->TriggerDuplicate(*session_client_node);
        }
        break;
      }
      case FaultEvent::Kind::kRetryStorm: {
        if (session_client != nullptr) {
          session_client->TriggerRetryStorm(*session_client_node);
        }
        break;
      }
      case FaultEvent::Kind::kSessionAbandon: {
        if (session_client != nullptr) {
          session_client->TriggerAbandon(*session_client_node);
        }
        break;
      }
      case FaultEvent::Kind::kLeaseDrop: {
        // Pause the grantor so leases expire and reads fall back to the
        // ring; Resume re-grants under a fresh epoch at heal time.
        if (lease_grantor != nullptr) {
          lease_grantor->Pause();
          auto* lg = lease_grantor;
          auto* ln = lease_grantor_node;
          sched.At(heal_at, [lg, ln] { lg->Resume(*ln); });
        }
        break;
      }
      case FaultEvent::Kind::kSplitLive: {
        // The repartition coordinator was armed at setup with this
        // event's time as its start delay; nothing to trigger here.
        break;
      }
      case FaultEvent::Kind::kResubscribeStorm: {
        // Unsubscribe the last ring's group now; at heal time, rejoin
        // positioned at the reference learner's frontier (the
        // snapshot-cut bootstrap of a live join). Both changes activate
        // at merge turn boundaries.
        if (observer != nullptr) {
          const int r = shape.n_rings - 1;
          const GroupId g = d.ring(r).group;
          observer->QueueUnsubscribe(g);
          MergeLearner* obs = observer;
          MergeLearner* ref = merge_a;
          sched.At(heal_at, [obs, ref, &d, r, g] {
            InstanceId cut = 1;
            for (std::size_t i = 0; i < ref->group_count(); ++i) {
              if (ref->group_source(i)->group() == g) {
                cut = ref->group_source(i)->next_instance();
              }
            }
            ringpaxos::LearnerOptions lo;
            lo.ring = d.ring(r);
            auto src = std::make_unique<ringpaxos::LearnerCore>(lo);
            src->StartAt(cut);
            obs->QueueSubscribe(std::move(src));
          });
        }
        break;
      }
      case FaultEvent::Kind::kReconfigCoordKill: {
        // Pause the repartition coordinator mid-plan; its deferred tick
        // resumes the idempotent state machine at heal time.
        if (repart_node != nullptr) {
          repart_node->SetDown(true);
          auto* n = repart_node;
          sched.At(heal_at, [n] { n->SetDown(false); });
        }
        break;
      }
    }
  }
  d.net().RunUntil(std::max(plan.budget.horizon, last_end));

  // Heal everything and quiesce so liveness can be asserted and the
  // cross-learner oracles see settled logs.
  for (int r = 0; r < shape.n_rings; ++r) {
    for (auto* n : d.ring_universe(r)) n->SetDown(false);
  }
  active_loss.clear();
  apply_loss();
  for (int a = 0; a < shape.n_sites; ++a) {
    for (int b = a + 1; b < shape.n_sites; ++b) {
      d.net().SetLinkUp(static_cast<sim::SiteId>(a),
                        static_cast<sim::SiteId>(b), true);
    }
  }
  // Client progress is judged inside the quiesce window: a client that
  // stalled for good once a coordinator moved must not pass on the
  // strength of what it completed before the move.
  const std::uint64_t kv_before =
      kv_client != nullptr ? kv_client->completed() : 0;
  const std::uint64_t session_before =
      session_client != nullptr ? session_client->completed() : 0;
  d.RunFor(kQuiesce);

  oracle.Finish();
  // Restored-stream comparison: every crash-recovered segment of rec-b
  // must be byte-identical to rec-a's stream from its resume index.
  recovery_oracle.Finish();
  // Split no-loss check: every stamped write the client saw complete
  // must have been applied by some replica (no-op without reconfig).
  reconfig_oracle.Finish();

  if (plan.budget.assert_liveness) {
    if (delivered_by_a.size() < kMinProgress) {
      oracle.Flag("liveness",
                  "acking learner delivered " +
                      std::to_string(delivered_by_a.size()) + " < " +
                      std::to_string(kMinProgress) + " messages");
    }
    // Validity: every acknowledged submission was delivered (or is
    // still tracked as outstanding after the final retransmit).
    for (std::size_t p = 0; p < props.size(); ++p) {
      const NodeId id = d.proposer_node(p)->self();
      const auto inflight = props[p]->outstanding_seqs();
      const std::set<std::uint64_t> inflight_set(inflight.begin(),
                                                 inflight.end());
      for (std::uint64_t s = 1; s <= props[p]->acked_seq(); ++s) {
        if (delivered_by_a.count({id, s}) == 0 &&
            inflight_set.count(s) == 0) {
          oracle.Flag("acked_lost", "proposer " + std::to_string(id) +
                                        " seq " + std::to_string(s) +
                                        " acked but never delivered");
          break;  // one per proposer is enough signal
        }
      }
    }
    if (kv_client != nullptr) {
      const std::uint64_t done = kv_client->completed() - kv_before;
      if (done < 10) {
        oracle.Flag("liveness", "kv client completed " + std::to_string(done) +
                                    " < 10 operations in the final quiesce");
      }
    }
    if (session_client != nullptr) {
      const std::uint64_t done = session_client->completed() - session_before;
      if (done < 10) {
        oracle.Flag("liveness",
                    "session client completed " + std::to_string(done) +
                        " < 10 operations in the final quiesce");
      }
    }
    if (repart != nullptr && !repart->done()) {
      oracle.Flag("liveness",
                  "repartition plan did not complete (phase " +
                      std::to_string(static_cast<int>(repart->phase())) +
                      ")");
    }
  }

  RunStats rs;
  rs.violated = !oracle.ok();
  rs.first_oracle = oracle.first_oracle();
  rs.violations = oracle.violations();
  rs.digest = oracle.feed_digest();
  rs.deliveries = oracle.deliveries();
  rs.session_applies = session_oracle.session_applies();
  rs.local_reads = session_oracle.local_reads();
  rs.reconfig_applies = reconfig_oracle.applies();
  rs.repart_done = repart != nullptr && repart->done();
  rs.report = oracle.Report();
  return rs;
}

// Greedy event-drop shrinking: repeatedly remove the first event whose
// removal preserves a violation of `target`, until no single removal
// does (or the run budget is spent).
FaultPlan Shrink(const FaultPlan& plan, InstanceId inject,
                 const std::string& target, int max_runs, bool verbose) {
  FaultPlan cur = plan;
  int runs = 0;
  bool improved = true;
  while (improved && runs < max_runs) {
    improved = false;
    for (std::size_t i = 0; i < cur.events.size() && runs < max_runs; ++i) {
      FaultPlan cand = cur;
      cand.events.erase(cand.events.begin() +
                        static_cast<std::ptrdiff_t>(i));
      ++runs;
      RunStats rs = RunPlan(cand, inject, false);
      if (rs.violated && (target.empty() || rs.Has(target))) {
        cur = std::move(cand);
        improved = true;
        if (verbose) {
          std::fprintf(stderr, "  shrink: %zu events (run %d)\n",
                       cur.events.size(), runs);
        }
        break;
      }
    }
  }
  return cur;
}

std::string ArtifactPath(const std::string& dir, std::uint64_t seed) {
  return dir + "/mrp_fuzz_seed" + std::to_string(seed) + ".json";
}

bool WriteArtifact(const std::string& path, const ReplayArtifact& art) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << check::ToJson(art) << "\n";
  return static_cast<bool>(out);
}

// ---- Codec fuzzing ----------------------------------------------------

// Representative well-formed frames to mutate.
std::vector<Bytes> CodecCorpus() {
  using namespace ringpaxos;  // NOLINT
  std::vector<Bytes> corpus;
  auto add = [&corpus](const MessageBase& m) {
    corpus.push_back(net::EncodeMessage(m));
  };

  paxos::ClientMsg cm;
  cm.group = 1;
  cm.proposer = 7;
  cm.seq = 42;
  cm.sent_at = Millis(3);
  cm.payload_size = 4;
  cm.payload = Bytes{0xde, 0xad, 0xbe, 0xef};
  paxos::Value val;
  val.kind = paxos::Value::Kind::kBatch;
  val.msgs = {cm, cm};
  paxos::Value skip;
  skip.kind = paxos::Value::Kind::kSkip;
  skip.skip_count = 16;

  add(Submit(0, cm));
  add(SubmitAck(0, 1, 42));
  add(P2A(0, 1, 9, 77, val, {{8, 76}, {9, 77}}, {1, 2, 3}));
  add(P2A(1, 2, 10, 78, skip, {}, {4, 5}));
  add(P2B(0, 1, 9, 77, 2));
  add(DecisionMsg(0, {{9, 77}}));
  add(P1A(0, 3, 5, {1, 2}));
  add(P1B(0, 3, {{5, 2, val}, {6, 2, skip}}));
  add(Heartbeat(0, 3, 1));
  add(HeartbeatAck(0, 3));
  add(LearnReq(0, 5, 32));
  add(LearnRep(0, {{5, 77, val}}));
  add(DeliveryAck(0, 1, 42));
  add(TrimNotice(0, 100, 200));
  add(recovery::SnapshotRequest(0, 0, 16));
  add(recovery::SnapshotChunk(3, 1, 4, {0x01, 0x02, 0x03}));
  add(recovery::SnapshotDone(3, 4, 4096, 0xfeedfacecafebeefULL));
  add(recovery::CheckpointRequest(7));
  add(recovery::CheckpointReport(7, 7, {{0, 1200}, {1, 900}}));
  add(recovery::FrontierAdvert(7, {{0, 1000}, {1, 800}}));
  add(smr::Response(9, 0, true, {{1, "one"}}));
  add(session::LeaseGrant(0, 3, 9, 1200, TimePoint(77000000)));
  add(session::LeaseAck(0, 3));
  add(session::LeaseRevoke(0, 3));
  add(session::SessionRead(1, 42, 10, 20));
  add(session::SessionReadRep(42, 0, session::SessionReadRep::kOk,
                              {{1, "one"}, {2, "two"}}));
  add(session::SessionReadRep(43, 0, session::SessionReadRep::kNoLease));
  add(session::Rejected(1, 42, session::Rejected::kOverload));
  {
    reconfig::RingConfiguration rcfg(
        2,
        {reconfig::GroupRoute{0, 0, 3, 10, 11, {3, 4}},
         reconfig::GroupRoute{1, 1, 5, 12, 13, {5, 6}}},
        {{0, 499999, 0}, {500000, 999999, 1}});
    add(reconfig::RoutingUpdate(rcfg.version(), rcfg.Encode()));
  }
  add(reconfig::HandoffRequest(77, 1));
  add(reconfig::PlanStatus(77, true));
  add(paxos::SubmitReq(cm));
  add(paxos::Phase1A(4, 2));
  add(paxos::Phase1B(4, 2, 1, val));
  add(paxos::Phase2A(4, 2, val));
  add(paxos::Phase2B(4, 2));
  add(paxos::DecisionMsg(4, val, 1));
  add(paxos::LearnReq(4));
  return corpus;
}

// Mutates corpus frames (and throws in fully random ones) through the
// decoder. Any crash/sanitizer report is a codec bug; decoded frames
// must also re-encode without crashing.
int RunCodecFuzz(std::uint64_t seed, int iterations) {
  const std::vector<Bytes> corpus = CodecCorpus();
  // Every corpus frame must decode cleanly before we start mutating.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (net::DecodeMessage(corpus[i]) == nullptr) {
      std::fprintf(stderr, "codec-fuzz: corpus frame %zu does not decode\n",
                   i);
      return 1;
    }
  }
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::uint64_t decoded = 0;
  for (int it = 0; it < iterations; ++it) {
    Bytes frame;
    const std::uint64_t strategy = rng.below(5);
    if (strategy == 0) {
      // Fully random frame.
      frame.resize(rng.below(64) + 1);
      for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
    } else {
      frame = corpus[rng.below(corpus.size())];
      switch (strategy) {
        case 1:  // truncate
          frame.resize(rng.below(frame.size() + 1));
          break;
        case 2:  // flip random bytes
          for (std::uint64_t k = rng.below(8) + 1; k > 0 && !frame.empty();
               --k) {
            frame[rng.below(frame.size())] ^=
                static_cast<std::uint8_t>(rng.below(256));
          }
          break;
        case 3:  // saturate a run of bytes (forges huge varint lengths)
          if (!frame.empty()) {
            std::size_t at = rng.below(frame.size());
            for (std::size_t k = 0; k < 9 && at + k < frame.size(); ++k) {
              frame[at + k] = 0xff;
            }
          }
          break;
        default:  // splice the tail of another corpus frame
          if (!frame.empty()) {
            const Bytes& other = corpus[rng.below(corpus.size())];
            frame.resize(rng.below(frame.size()) + 1);
            frame.insert(frame.end(), other.begin(), other.end());
          }
          break;
      }
    }
    MessagePtr m = net::DecodeMessage(frame);
    if (m != nullptr) {
      ++decoded;
      (void)net::EncodeMessage(*m);  // round trip must not crash either
    }
  }
  std::printf("codec-fuzz: %d frames, %llu decoded, no crashes\n",
              iterations, static_cast<unsigned long long>(decoded));
  return 0;
}

// ---- Modes ------------------------------------------------------------

int RunSweep(std::uint64_t start_seed, int n_seeds,
             const DeploymentShape& shape, const FaultBudget& budget,
             const std::string& artifact_dir, bool verbose) {
  for (int i = 0; i < n_seeds; ++i) {
    const std::uint64_t seed = start_seed + static_cast<std::uint64_t>(i);
    FaultPlan plan = check::GeneratePlan(seed, shape, budget);
    if (verbose) {
      std::fprintf(stderr, "seed %llu: %zu events\n",
                   static_cast<unsigned long long>(seed),
                   plan.events.size());
    }
    RunStats rs = RunPlan(plan, 0, verbose);
    if (!rs.violated) {
      std::printf("seed %llu ok (%llu deliveries, digest %016llx)\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(rs.deliveries),
                  static_cast<unsigned long long>(rs.digest));
      continue;
    }
    std::printf("seed %llu VIOLATION:\n%s\n",
                static_cast<unsigned long long>(seed), rs.report.c_str());
    std::printf("shrinking (%zu events)...\n", plan.events.size());
    FaultPlan shrunk = Shrink(plan, 0, rs.first_oracle, 200, verbose);
    RunStats final_rs = RunPlan(shrunk, 0, false);
    ReplayArtifact art;
    art.plan = shrunk;
    art.violated_oracle = final_rs.first_oracle;
    art.feed_digest = final_rs.digest;
    const std::string path = ArtifactPath(artifact_dir, seed);
    if (!WriteArtifact(path, art)) {
      std::fprintf(stderr, "failed to write artifact %s\n", path.c_str());
    } else {
      std::printf("artifact (%zu events) written to %s\n",
                  shrunk.events.size(), path.c_str());
    }
    return 1;
  }
  std::printf("all %d seeds passed\n", n_seeds);
  return 0;
}

int RunReplay(const std::string& path, bool verbose) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  auto art = check::ParseArtifact(ss.str());
  if (!art) {
    std::fprintf(stderr, "%s is not a valid replay artifact\n", path.c_str());
    return 2;
  }
  RunStats rs = RunPlan(art->plan, art->inject_corrupt_instance, verbose);
  const bool oracle_match = rs.first_oracle == art->violated_oracle;
  const bool digest_match = rs.digest == art->feed_digest;
  if (rs.violated && oracle_match && digest_match) {
    std::printf("replay OK: oracle '%s' reproduced, digest %016llx matches\n",
                rs.first_oracle.c_str(),
                static_cast<unsigned long long>(rs.digest));
    if (verbose) std::printf("%s\n", rs.report.c_str());
    return 0;
  }
  std::printf("replay MISMATCH: violated=%d oracle '%s' (expected '%s') "
              "digest %016llx (expected %016llx)\n%s\n",
              rs.violated ? 1 : 0, rs.first_oracle.c_str(),
              art->violated_oracle.c_str(),
              static_cast<unsigned long long>(rs.digest),
              static_cast<unsigned long long>(art->feed_digest),
              rs.report.c_str());
  return 1;
}

int RunSelfCheck(const std::string& artifact_dir, bool verbose) {
  const std::uint64_t seed = 42;
  const InstanceId corrupt_at = 200;
  DeploymentShape shape;
  FaultBudget budget;
  FaultPlan plan = check::GeneratePlan(seed, shape, budget);

  // 1. The clean run must pass — otherwise the fuzzer found a real bug
  //    and the self-check machinery cannot be validated on top of it.
  std::printf("self-check 1/6: clean run...\n");
  RunStats clean = RunPlan(plan, 0, verbose);
  if (clean.violated) {
    std::printf("clean run violated oracles (real bug?):\n%s\n",
                clean.report.c_str());
    return 1;
  }

  // 2. Injecting the agreement bug must trip the oracles.
  std::printf("self-check 2/6: injected corruption is caught...\n");
  RunStats bad = RunPlan(plan, corrupt_at, verbose);
  if (!bad.violated) {
    std::printf("injected corruption was NOT caught\n");
    return 1;
  }
  if (!bad.Has("agreement") && !bad.Has("integrity")) {
    std::printf("violation caught but not by agreement/integrity:\n%s\n",
                bad.report.c_str());
    return 1;
  }

  // 3. The shrinker must reduce the schedule: the injected bug is
  //    plan-independent, so nearly every event can be dropped.
  std::printf("self-check 3/6: shrinking %zu events...\n",
              plan.events.size());
  FaultPlan shrunk = Shrink(plan, corrupt_at, bad.first_oracle, 200, verbose);
  if (shrunk.events.size() > 5) {
    std::printf("shrinker left %zu events (> 5)\n", shrunk.events.size());
    return 1;
  }

  // 4. The artifact must round-trip through JSON and replay to the
  //    byte-identical oracle feed.
  std::printf("self-check 4/6: artifact round-trip + byte-identical replay...\n");
  RunStats final_rs = RunPlan(shrunk, corrupt_at, false);
  ReplayArtifact art;
  art.plan = shrunk;
  art.violated_oracle = final_rs.first_oracle;
  art.feed_digest = final_rs.digest;
  art.inject_corrupt_instance = corrupt_at;
  auto parsed = check::ParseArtifact(check::ToJson(art));
  if (!parsed || !(*parsed == art)) {
    std::printf("artifact JSON round-trip mismatch\n");
    return 1;
  }
  RunStats replay = RunPlan(parsed->plan, parsed->inject_corrupt_instance,
                            false);
  if (replay.digest != art.feed_digest ||
      replay.first_oracle != art.violated_oracle) {
    std::printf("replay diverged: digest %016llx vs %016llx, oracle '%s' "
                "vs '%s'\n",
                static_cast<unsigned long long>(replay.digest),
                static_cast<unsigned long long>(art.feed_digest),
                replay.first_oracle.c_str(), art.violated_oracle.c_str());
    return 1;
  }
  const std::string path = ArtifactPath(artifact_dir, seed);
  WriteArtifact(path, art);

  // 5. Session control plane (docs/SESSIONS.md): a seeded retry-storm
  //    plan with a learner crash and a lease drop must exercise the
  //    session machinery (duplicate submissions suppressed, local reads
  //    served) without tripping the exactly-once or lease-read oracles,
  //    round-trip through JSON, and replay to the identical feed digest.
  std::printf(
      "self-check 5/6: session retry storm + learner crash replays clean...\n");
  FaultPlan sp;
  sp.seed = 7;
  sp.shape.with_smr = true;
  auto put = [&sp](FaultEvent::Kind kind, std::int64_t at_ms,
                   std::int64_t dur_ms) {
    FaultEvent e;
    e.kind = kind;
    e.at = TimePoint(at_ms * 1000000);
    e.duration = Duration(dur_ms * 1000000);
    sp.events.push_back(e);
  };
  put(FaultEvent::Kind::kRetryStorm, 400, 20);
  put(FaultEvent::Kind::kDuplicateSubmit, 600, 20);
  put(FaultEvent::Kind::kLearnerCrash, 800, 300);
  put(FaultEvent::Kind::kLeaseDrop, 1200, 200);
  put(FaultEvent::Kind::kRetryStorm, 1600, 20);
  put(FaultEvent::Kind::kSessionAbandon, 2000, 20);
  put(FaultEvent::Kind::kDuplicateSubmit, 2400, 20);
  RunStats sess = RunPlan(sp, 0, verbose);
  if (sess.violated) {
    std::printf("session plan violated oracles:\n%s\n", sess.report.c_str());
    return 1;
  }
  if (sess.session_applies == 0 || sess.local_reads == 0) {
    std::printf("session plan did not exercise the machinery "
                "(applies=%llu local_reads=%llu)\n",
                static_cast<unsigned long long>(sess.session_applies),
                static_cast<unsigned long long>(sess.local_reads));
    return 1;
  }
  ReplayArtifact sart;
  sart.plan = sp;
  sart.feed_digest = sess.digest;
  auto sparsed = check::ParseArtifact(check::ToJson(sart));
  if (!sparsed || !(*sparsed == sart)) {
    std::printf("session artifact JSON round-trip mismatch\n");
    return 1;
  }
  RunStats sreplay = RunPlan(sparsed->plan, 0, false);
  if (sreplay.violated || sreplay.digest != sess.digest) {
    std::printf("session replay diverged: digest %016llx vs %016llx\n",
                static_cast<unsigned long long>(sreplay.digest),
                static_cast<unsigned long long>(sess.digest));
    return 1;
  }

  // 6. Reconfiguration (docs/RECONFIG.md): a scripted live split with a
  //    resubscribe storm and a coordinator crash mid-plan must complete
  //    the repartition, keep every oracle green, and replay to the
  //    identical feed digest.
  std::printf(
      "self-check 6/6: live split under faults completes and replays...\n");
  FaultPlan rp;
  rp.seed = 11;
  rp.shape.with_smr = true;
  auto rput = [&rp](FaultEvent::Kind kind, std::int64_t at_ms,
                    std::int64_t dur_ms) {
    FaultEvent e;
    e.kind = kind;
    e.at = TimePoint(at_ms * 1000000);
    e.duration = Duration(dur_ms * 1000000);
    rp.events.push_back(e);
  };
  rput(FaultEvent::Kind::kResubscribeStorm, 400, 300);
  rput(FaultEvent::Kind::kSplitLive, 800, 20);
  rput(FaultEvent::Kind::kReconfigCoordKill, 900, 250);
  rput(FaultEvent::Kind::kResubscribeStorm, 1600, 300);
  RunStats reconf = RunPlan(rp, 0, verbose);
  if (reconf.violated) {
    std::printf("reconfig plan violated oracles:\n%s\n",
                reconf.report.c_str());
    return 1;
  }
  if (!reconf.repart_done || reconf.reconfig_applies == 0) {
    std::printf("reconfig plan did not exercise the machinery "
                "(done=%d stamped applies=%llu)\n",
                reconf.repart_done ? 1 : 0,
                static_cast<unsigned long long>(reconf.reconfig_applies));
    return 1;
  }
  ReplayArtifact rart;
  rart.plan = rp;
  rart.feed_digest = reconf.digest;
  auto rparsed = check::ParseArtifact(check::ToJson(rart));
  if (!rparsed || !(*rparsed == rart)) {
    std::printf("reconfig artifact JSON round-trip mismatch\n");
    return 1;
  }
  RunStats rreplay = RunPlan(rparsed->plan, 0, false);
  if (rreplay.violated || rreplay.digest != reconf.digest) {
    std::printf("reconfig replay diverged: digest %016llx vs %016llx\n",
                static_cast<unsigned long long>(rreplay.digest),
                static_cast<unsigned long long>(reconf.digest));
    return 1;
  }

  std::printf("self-check PASSED (%zu-event artifact at %s, digest "
              "%016llx; session plan: %llu applies, %llu local reads; "
              "reconfig plan: split done, %llu stamped applies)\n",
              shrunk.events.size(), path.c_str(),
              static_cast<unsigned long long>(art.feed_digest),
              static_cast<unsigned long long>(sess.session_applies),
              static_cast<unsigned long long>(sess.local_reads),
              static_cast<unsigned long long>(reconf.reconfig_applies));
  return 0;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds N] [--start-seed S] [--budget majority|anything]\n"
      "          [--rings R] [--ring-size K] [--spares P] [--sites S] [--smr]\n"
      "          [--artifact-dir DIR] [--replay FILE] [--self-check]\n"
      "          [--codec-fuzz N] [--probe RING:INSTANCE] [-v]\n",
      argv0);
}

std::uint64_t ParseU64(const char* s) {
  return std::strtoull(s, nullptr, 10);
}

}  // namespace
}  // namespace mrp

int main(int argc, char** argv) {
  using namespace mrp;  // NOLINT
  int n_seeds = 25;
  std::uint64_t start_seed = 1;
  check::DeploymentShape shape;
  check::FaultBudget budget;
  std::string artifact_dir = ".";
  std::string replay_path;
  std::string trace_path;
  bool self_check = false;
  int codec_iters = 0;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      n_seeds = static_cast<int>(ParseU64(next()));
    } else if (arg == "--start-seed") {
      start_seed = ParseU64(next());
    } else if (arg == "--budget") {
      const std::string b = next();
      if (b == "anything") {
        budget = check::FaultBudget::AnythingGoes();
      } else if (b != "majority") {
        Usage(argv[0]);
        return 2;
      }
    } else if (arg == "--rings") {
      shape.n_rings = static_cast<int>(ParseU64(next()));
    } else if (arg == "--ring-size") {
      shape.ring_size = static_cast<int>(ParseU64(next()));
    } else if (arg == "--spares") {
      shape.n_spares = static_cast<int>(ParseU64(next()));
    } else if (arg == "--sites") {
      shape.n_sites = static_cast<int>(ParseU64(next()));
    } else if (arg == "--smr") {
      shape.with_smr = true;
    } else if (arg == "--artifact-dir") {
      artifact_dir = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--self-check") {
      self_check = true;
    } else if (arg == "--codec-fuzz") {
      codec_iters = static_cast<int>(ParseU64(next()));
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--probe") {
      const std::string spec = next();
      const auto colon = spec.find(':');
      if (colon == std::string::npos) {
        Usage(argv[0]);
        return 2;
      }
      g_probe.active = true;
      g_probe.ring = static_cast<RingId>(ParseU64(spec.c_str()));
      g_probe.instance = ParseU64(spec.c_str() + colon + 1);
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  if (!trace_path.empty()) Tracer::Instance().Enable();
  int rc = 0;
  if (codec_iters > 0) {
    rc = RunCodecFuzz(start_seed, codec_iters);
  } else if (self_check) {
    rc = RunSelfCheck(artifact_dir, verbose);
  } else if (!replay_path.empty()) {
    rc = RunReplay(replay_path, verbose);
  } else {
    rc = RunSweep(start_seed, n_seeds, shape, budget, artifact_dir, verbose);
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path, std::ios::trunc);
    Tracer::Instance().WriteJsonl(out);
    std::fprintf(stderr, "trace (%zu events) written to %s\n",
                 Tracer::Instance().size(), trace_path.c_str());
  }
  return rc;
}
