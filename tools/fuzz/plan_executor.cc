#include "plan_executor.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/reconfig_oracle.h"
#include "check/recovery_oracle.h"
#include "check/session_oracle.h"
#include "common/trace.h"
#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"
#include "reconfig/repartition.h"
#include "recovery/checkpoint.h"
#include "recovery/hash_app.h"
#include "recovery/recoverable_learner.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"
#include "session/admission.h"
#include "session/lease.h"
#include "sim/snapshot_disk.h"
#include "sim/topology.h"
#include "smr/client.h"
#include "smr/replica.h"
#include "workload/driver.h"

namespace mrp::fuzz {
namespace {

using check::DeploymentShape;
using check::FaultEvent;
using check::FaultPlan;
using check::OracleSuite;
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

void MaybeProbe(const RunOptions& o, const std::string& learner, RingId ring,
                InstanceId inst, const paxos::Value& v) {
  if (!o.probe || ring != o.probe->first || inst != o.probe->second) return;
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

sim::SimNode* ResolveCoordinator(SimDeployment& d, int ring) {
  for (auto* n : d.ring_universe(ring)) {
    if (n->down()) continue;
    auto* rn = n->protocol_as<ringpaxos::RingNode>();
    if (rn != nullptr && rn->is_coordinator()) return n;
  }
  // Mid-election: fall back to the initial coordinator.
  return d.coordinator_node(ring);
}

}  // namespace

RunStats RunPlan(const FaultPlan& plan, const RunOptions& options) {
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
    if (check::IsReconfigKind(ev.kind)) has_reconfig_events = true;
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

  // Workload shapes: the driver replaces the closed-loop proposers, and
  // merge-a's deliveries feed its per-tenant accounting.
  workload::WorkloadDriver* driver = nullptr;
  sim::SimNode* learner_node = nullptr;  // node of the latest add_learner
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
    mo.on_decide = [&options, &oracle, idx, name](
                       RingId ring, InstanceId inst, const paxos::Value& v) {
      MaybeProbe(options, name, ring, inst, v);
      oracle.OnDecide(idx, ring, inst, v);
    };
    mo.on_deliver = [&oracle, &reconfig_oracle, &delivered_by_a, &driver, &d,
                     idx, rl, acks](GroupId g, const paxos::ClientMsg& m) {
      oracle.OnDeliver(idx, g, m);
      if (acks) {
        delivered_by_a.emplace(m.proposer, m.seq);
        if (driver != nullptr) driver->RecordDelivery(d.net().now(), m);
      }
      if (rl >= 0) reconfig_oracle.OnDeliver(rl, g, m.Fingerprint());
    };
    return d.AddLearnerNode(
        rings, [&](sim::SimNode& n, std::vector<ringpaxos::LearnerOptions> lo) {
          learner_node = &n;
          if (corrupt != 0) lo.front().test_corrupt_instance = corrupt;
          mo.groups = std::move(lo);
          return std::make_unique<MergeLearner>(std::move(mo));
        });
  };
  MergeLearner* merge_a = add_learner("merge-a", all_rings, /*acks=*/true, 0);
  add_learner("merge-b", all_rings, /*acks=*/false, options.inject_corrupt);
  sim::SimNode* const merge_b_node = learner_node;  // kLearnerPause target
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
  ra.merge.on_decide = [&options, &oracle, rec_a_idx](
                           RingId ring, InstanceId inst, const paxos::Value& v) {
    MaybeProbe(options, "rec-a", ring, inst, v);
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

  // Two closed-loop proposers per ring, or one open-loop WorkloadDriver
  // running the multi-tenant mix (docs/WORKLOADS.md) over every ring.
  std::vector<ringpaxos::Proposer*> props;
  if (shape.workload) {
    workload::DriverConfig wc;
    wc.mix = workload::DefaultMix();
    for (int r : all_rings) wc.rings.push_back(d.ring(r));
    wc.on_submit = [&oracle](const paxos::ClientMsg& m) {
      oracle.OnPropose(m);
    };
    auto owned = std::make_unique<workload::WorkloadDriver>(std::move(wc));
    driver = owned.get();
    d.AddClient(std::move(owned), all_rings);
  } else {
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
    if (options.verbose) {
      std::fprintf(stderr, "  [%8.3fs] %s ring=%d member=%d dur=%.3fs\n",
                   static_cast<double>(ev.at.count()) * 1e-9,
                   check::KindName(ev.kind), ev.ring, ev.member,
                   static_cast<double>(ev.duration.count()) * 1e-9);
    }
    // The fault lands in the trace too, so the determinism gate can tell
    // a plan whose events stopped firing.
    TraceProtocolEvent(ev.at, kNoNode, kNoRing, kNoInstance, "fault",
                       check::KindName(ev.kind));
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
        d.acceptor_node(ev.ring, ev.member)
            ->StallDisk(d.net().now() + ev.duration);
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
      case FaultEvent::Kind::kLearnerPause: {
        // Pause merge-b with its state intact; on resume it catches up
        // through the ordinary learner recovery path.
        merge_b_node->SetDown(true);
        sched.At(heal_at, [merge_b_node] { merge_b_node->SetDown(false); });
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

  if (!options.metrics_path.empty()) {
    std::ofstream out(options.metrics_path, std::ios::trunc);
    d.net().WriteMetricsJson(out);
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

}  // namespace mrp::fuzz
