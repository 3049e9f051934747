// SimDeployment: builds a complete Multi-Ring Paxos cluster on the
// discrete-event simulator — rings (acceptor universes with in-memory or
// simulated-disk storage), merge/single-group learners, workload
// proposers and other client nodes — and wires multicast subscriptions.
// Shared by the tests and every benchmark so topologies are declared,
// not hand-assembled.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <memory>
#include <utility>
#include <vector>

#include "multiring/merge_learner.h"
#include "ringpaxos/config.h"
#include "ringpaxos/learner.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"
#include "sim/disk_storage.h"
#include "sim/network.h"

namespace mrp::multiring {

struct DeploymentOptions {
  int n_rings = 1;
  int ring_size = 2;   // in-ring acceptors (f+1), coordinator included
  int n_spares = 0;    // spare acceptors per ring
  bool disk = false;   // recoverable mode: acceptors write to simulated disk
  double lambda_per_sec = 9000;   // paper default
  Duration delta = Millis(1);     // paper default
  sim::NetConfig net;
  // Per-ring tuning knobs copied into every RingConfig.
  std::size_t batch_bytes = 8 * 1024;
  Duration batch_timeout = Millis(1);
  std::size_t window = 64;
  bool ack_submits = false;
  bool batch_skips = true;  // false = Algorithm-1-literal skips (ablation)
  bool skip_resync = false;  // absolute lambda*t schedule (extension)
  std::size_t trim_keep = 50'000;  // acceptor log retention (instances)
  // Safety-tied trimming (docs/RECOVERY.md): acceptors only trim below
  // the stable checkpoint frontier advertised by a CheckpointCoordinator.
  bool frontier_gated_trim = false;
  Duration suspect_after = Millis(100);
  Duration heartbeat_interval = Millis(20);
  // ---- Geo placement (docs/TOPOLOGY.md) ----
  // Site of ring r's acceptors (and, by default, its proposers). Shorter
  // vectors are padded with site 0, so single-site deployments need not
  // set this at all.
  std::vector<sim::SiteId> ring_sites;
  // Per-ring maximum-rate override lambda_r (msgs/s); rings beyond the
  // vector use the uniform lambda_per_sec. Rate-skewed rings are the
  // scenario per-group merge quotas M_g exist for.
  std::vector<double> ring_lambda;
  // Heterogeneous hardware: node spec per site, and per individual ring
  // member (ring index, member index) — the latter wins. Nodes in
  // unlisted sites use net.default_spec.
  std::map<sim::SiteId, sim::NodeSpec> site_specs;
  std::map<std::pair<int, int>, sim::NodeSpec> ring_node_specs;
  // Per-member site override (ring index, member index): lets one ring
  // span sites — the paper's Stretching M-RP deployment, and the shape
  // a WAN partition can rob of its quorum.
  std::map<std::pair<int, int>, sim::SiteId> ring_node_sites;
};

class SimDeployment {
 public:
  explicit SimDeployment(DeploymentOptions opts) : opts_(opts), net_(opts.net) {
    for (int r = 0; r < opts_.n_rings; ++r) AddRing(r);
  }

  sim::SimNetwork& net() { return net_; }
  const ringpaxos::RingConfig& ring(int i) const { return rings_[i]; }
  int n_rings() const { return static_cast<int>(rings_.size()); }

  // The initial coordinator (ring_members[0]) of ring i.
  sim::SimNode* coordinator_node(int i) { return ring_nodes_[i][0]; }
  ringpaxos::RingNode* coordinator(int i) {
    return ring_nodes_[i][0]->protocol_as<ringpaxos::RingNode>();
  }
  sim::SimNode* acceptor_node(int ring, int idx) { return ring_nodes_[ring][idx]; }
  // Simulated disk of ring r's universe member idx (ring members first,
  // then spares); nullptr when the deployment runs in-memory. Used by
  // the chaos fuzzer's disk-stall fault injection.
  sim::SimDiskStorage* disk_storage(int r, int idx) {
    if (!opts_.disk) return nullptr;
    const auto universe =
        static_cast<std::size_t>(opts_.ring_size + opts_.n_spares);
    return disks_[static_cast<std::size_t>(r) * universe +
                  static_cast<std::size_t>(idx)]
        .get();
  }
  const std::vector<sim::SimNode*>& ring_universe(int i) { return ring_nodes_[i]; }
  // Site ring r's acceptors were placed in.
  sim::SiteId ring_site(int r) const {
    return r < static_cast<int>(opts_.ring_sites.size()) ? opts_.ring_sites[r]
                                                         : 0;
  }

  // Geo-aware merge-learner knobs (each defaulting to the seed
  // behaviour): placement site, per-group quotas, latency compensation.
  struct LearnerSpec {
    std::uint32_t m = 1;
    std::map<GroupId, std::uint32_t> m_per_group;
    Duration latency_compensation{0};
    std::size_t max_buffer_msgs = 0;
    bool send_delivery_acks = false;
    Duration recovery_interval = Millis(10);
    sim::SiteId site = 0;
  };

  // Learner subscribed to the given rings (by ring index).
  MergeLearner* AddMergeLearner(const std::vector<int>& ring_indices,
                                std::uint32_t m = 1,
                                std::size_t max_buffer_msgs = 0,
                                bool send_delivery_acks = false,
                                Duration recovery_interval = Millis(10)) {
    LearnerSpec spec;
    spec.m = m;
    spec.max_buffer_msgs = max_buffer_msgs;
    spec.send_delivery_acks = send_delivery_acks;
    spec.recovery_interval = recovery_interval;
    return AddMergeLearner(ring_indices, spec);
  }

  MergeLearner* AddMergeLearner(const std::vector<int>& ring_indices,
                                const LearnerSpec& spec) {
    auto& node = net_.AddNode(SpecForSite(spec.site), spec.site);
    MergeLearner::Options opts;
    opts.m = spec.m;
    opts.m_per_group = spec.m_per_group;
    opts.latency_compensation = spec.latency_compensation;
    opts.max_buffer_msgs = spec.max_buffer_msgs;
    opts.send_delivery_acks = spec.send_delivery_acks;
    for (int idx : ring_indices) {
      ringpaxos::LearnerOptions lo;
      lo.ring = rings_[idx];
      lo.recovery_interval = spec.recovery_interval;
      opts.groups.push_back(lo);
      net_.Subscribe(node.self(), rings_[idx].data_channel);
      net_.Subscribe(node.self(), rings_[idx].control_channel);
    }
    auto learner = std::make_unique<MergeLearner>(std::move(opts));
    auto* raw = learner.get();
    node.BindProtocol(std::move(learner));
    learner_nodes_.push_back(&node);
    return raw;
  }

  sim::SimNode* learner_node(std::size_t i) { return learner_nodes_[i]; }

  // Single-group learner on ring `idx`, placed in `site` (defaults to
  // the ring's own site).
  ringpaxos::RingLearner* AddRingLearner(
      int idx, bool send_delivery_acks = false,
      std::optional<sim::SiteId> site = std::nullopt) {
    const sim::SiteId s = site.value_or(ring_site(idx));
    auto& node = net_.AddNode(SpecForSite(s), s);
    ringpaxos::RingLearner::Options opts;
    opts.learner.ring = rings_[idx];
    opts.send_delivery_acks = send_delivery_acks;
    auto learner = std::make_unique<ringpaxos::RingLearner>(std::move(opts));
    auto* raw = learner.get();
    node.BindProtocol(std::move(learner));
    net_.Subscribe(node.self(), rings_[idx].data_channel);
    net_.Subscribe(node.self(), rings_[idx].control_channel);
    learner_nodes_.push_back(&node);
    return raw;
  }

  // Client node running `protocol`: infinite CPU (clients are never the
  // bottleneck), placed in `site`, and subscribed to the control channel
  // of each listed ring so its ClientCore hears the coordinator's
  // heartbeats.
  sim::SimNode& AddClient(std::unique_ptr<Protocol> protocol,
                          const std::vector<int>& ring_indices,
                          sim::SiteId site = 0) {
    sim::NodeSpec spec = SpecForSite(site);
    spec.infinite_cpu = true;
    auto& node = net_.AddNode(spec, site);
    node.BindProtocol(std::move(protocol));
    for (int idx : ring_indices) {
      net_.Subscribe(node.self(), rings_[idx].control_channel);
    }
    return node;
  }

  // Workload proposer for ring `idx`. The returned config's ring/group/
  // coordinator fields are filled in; the caller sets the workload
  // shape. `group_override` supports many-groups-per-ring deployments
  // (Section IV-D): the message group may differ from the ring's
  // nominal group.
  ringpaxos::Proposer* AddProposer(int idx, ringpaxos::ProposerConfig cfg,
                                   std::optional<GroupId> group_override =
                                       std::nullopt,
                                   std::optional<sim::SiteId> site =
                                       std::nullopt) {
    cfg.ring = rings_[idx].ring;
    cfg.group = group_override.value_or(rings_[idx].group);
    cfg.coordinator = rings_[idx].ring_members[0];
    auto proposer = std::make_unique<ringpaxos::Proposer>(cfg);
    auto* raw = proposer.get();
    proposer_nodes_.push_back(
        &AddClient(std::move(proposer), {idx}, site.value_or(ring_site(idx))));
    return raw;
  }

  sim::SimNode* proposer_node(std::size_t i) { return proposer_nodes_[i]; }

  void Start() { net_.StartAll(); }
  void RunFor(Duration d) { net_.RunFor(d); }

 private:
  // Spec resolution: per-member override > per-site override > default.
  sim::NodeSpec SpecForSite(sim::SiteId site) const {
    auto it = opts_.site_specs.find(site);
    return it != opts_.site_specs.end() ? it->second : opts_.net.default_spec;
  }
  sim::NodeSpec SpecForMember(int ring, int member, sim::SiteId site) const {
    auto it = opts_.ring_node_specs.find({ring, member});
    return it != opts_.ring_node_specs.end() ? it->second : SpecForSite(site);
  }

  void AddRing(int r) {
    ringpaxos::RingConfig cfg;
    cfg.ring = static_cast<RingId>(r);
    cfg.group = static_cast<GroupId>(r);
    cfg.data_channel = static_cast<ChannelId>(2 * r);
    cfg.control_channel = static_cast<ChannelId>(2 * r + 1);
    cfg.lambda_per_sec = r < static_cast<int>(opts_.ring_lambda.size())
                             ? opts_.ring_lambda[r]
                             : opts_.lambda_per_sec;
    cfg.delta = opts_.delta;
    cfg.batch_bytes = opts_.batch_bytes;
    cfg.batch_timeout = opts_.batch_timeout;
    cfg.window = opts_.window;
    cfg.ack_submits = opts_.ack_submits;
    cfg.batch_skips = opts_.batch_skips;
    cfg.skip_resync = opts_.skip_resync;
    cfg.trim_keep = opts_.trim_keep;
    cfg.frontier_gated_trim = opts_.frontier_gated_trim;
    cfg.suspect_after = opts_.suspect_after;
    cfg.heartbeat_interval = opts_.heartbeat_interval;

    std::vector<sim::SimNode*> nodes;
    for (int i = 0; i < opts_.ring_size + opts_.n_spares; ++i) {
      auto st = opts_.ring_node_sites.find({r, i});
      const sim::SiteId site =
          st != opts_.ring_node_sites.end() ? st->second : ring_site(r);
      auto& node = net_.AddNode(SpecForMember(r, i, site), site);
      nodes.push_back(&node);
      if (i < opts_.ring_size) {
        cfg.ring_members.push_back(node.self());
      } else {
        cfg.spares.push_back(node.self());
      }
    }
    for (auto* node : nodes) {
      paxos::Storage* storage = nullptr;
      if (opts_.disk) {
        disks_.push_back(std::make_unique<sim::SimDiskStorage>(*node));
        storage = disks_.back().get();
      }
      node->BindProtocol(std::make_unique<ringpaxos::RingNode>(cfg, storage));
      net_.Subscribe(node->self(), cfg.data_channel);
      net_.Subscribe(node->self(), cfg.control_channel);
    }
    rings_.push_back(std::move(cfg));
    ring_nodes_.push_back(std::move(nodes));
  }

  DeploymentOptions opts_;
  sim::SimNetwork net_;
  std::vector<ringpaxos::RingConfig> rings_;
  std::vector<std::vector<sim::SimNode*>> ring_nodes_;
  std::vector<sim::SimNode*> learner_nodes_;
  std::vector<sim::SimNode*> proposer_nodes_;
  std::vector<std::unique_ptr<sim::SimDiskStorage>> disks_;
};

}  // namespace mrp::multiring
