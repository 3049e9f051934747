// SimDeployment: instantiates a DeploymentSpec on the discrete-event
// simulator — rings (acceptor universes with in-memory or simulated-disk
// storage), then merge learners, workload proposers and other client
// nodes by ring index — and wires multicast subscriptions.
// Shared by the tests and every benchmark so topologies are declared,
// not hand-assembled.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <memory>
#include <utility>
#include <vector>

#include "multiring/deployment_spec.h"
#include "multiring/merge_learner.h"
#include "ringpaxos/config.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"
#include "sim/disk_storage.h"
#include "sim/network.h"

namespace mrp::multiring {

// A DeploymentSpec (the ring layout and knobs, shared with the real
// runtime's LocalCluster) plus the simulator-only placement: network,
// storage, sites and node specs.
struct DeploymentOptions : DeploymentSpec {
  bool disk = false;   // recoverable mode: acceptors write to simulated disk
  sim::NetConfig net;
  // ---- Geo placement (docs/TOPOLOGY.md) ----
  // Site of ring r's acceptors (and, by default, its proposers). Shorter
  // vectors are padded with site 0, so single-site deployments need not
  // set this at all.
  std::vector<sim::SiteId> ring_sites;
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
  const DeploymentSpec& spec() const { return opts_; }
  const ringpaxos::RingConfig& ring(int i) const { return rings_[i]; }
  int n_rings() const { return static_cast<int>(rings_.size()); }

  // The initial coordinator (ring_members[0]) of ring i.
  sim::SimNode* coordinator_node(int i) { return ring_nodes_[i][0]; }
  ringpaxos::RingNode* coordinator(int i) {
    return ring_nodes_[i][0]->protocol_as<ringpaxos::RingNode>();
  }
  sim::SimNode* acceptor_node(int ring, int idx) { return ring_nodes_[ring][idx]; }
  const std::vector<sim::SimNode*>& ring_universe(int i) { return ring_nodes_[i]; }
  // Site ring r's acceptors were placed in.
  sim::SiteId ring_site(int r) const {
    return r < static_cast<int>(opts_.ring_sites.size()) ? opts_.ring_sites[r]
                                                         : 0;
  }

  // Learner node in `site` for the given rings (by ring index):
  // `make(node, groups)` returns the protocol, built from one
  // LearnerOptions per ring, and the node joins each ring's data and
  // control channels. Merge learners, replicas, recoverable learners and
  // test probes all come through here. Returns the protocol.
  template <typename Make>
  auto* AddLearnerNode(const std::vector<int>& ring_indices, Make&& make,
                       sim::SiteId site = 0) {
    auto& node = net_.AddNode(SpecForSite(site), site);
    auto protocol = make(node, opts_.LearnerGroups(ring_indices));
    auto* raw = protocol.get();
    node.BindProtocol(std::move(protocol));
    for (ChannelId ch : opts_.LearnerChannels(ring_indices)) {
      net_.Subscribe(node.self(), ch);
    }
    learner_nodes_.push_back(&node);
    return raw;
  }

  // Merge learner of the given rings, placed in `site`; `opts.groups`
  // is filled here.
  MergeLearner* AddMergeLearner(const std::vector<int>& ring_indices,
                                MergeLearner::Options opts = {},
                                sim::SiteId site = 0) {
    return AddLearnerNode(
        ring_indices,
        [&opts](sim::SimNode&, auto groups) {
          opts.groups = std::move(groups);
          return std::make_unique<MergeLearner>(std::move(opts));
        },
        site);
  }

  sim::SimNode* learner_node(std::size_t i) { return learner_nodes_[i]; }

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
    for (ChannelId ch : opts_.ClientChannels(ring_indices)) {
      net_.Subscribe(node.self(), ch);
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

  // Creates ring r's universe; the network hands out the spec's ids
  // because rings are built first, in ring order.
  void AddRing(int r) {
    rings_.push_back(opts_.Ring(r));
    auto& nodes = ring_nodes_.emplace_back();
    for (int i = 0; i < opts_.universe_size(); ++i) {
      auto st = opts_.ring_node_sites.find({r, i});
      const sim::SiteId site =
          st != opts_.ring_node_sites.end() ? st->second : ring_site(r);
      nodes.push_back(&net_.AddNode(SpecForMember(r, i, site), site));
      assert(nodes.back()->self() == opts_.acceptor_id(r, i));
    }
    for (auto* node : nodes) {
      paxos::Storage* storage = nullptr;
      if (opts_.disk) {
        disks_.push_back(std::make_unique<sim::SimDiskStorage>(*node));
        storage = disks_.back().get();
      }
      node->BindProtocol(
          std::make_unique<ringpaxos::RingNode>(rings_.back(), storage));
      for (ChannelId ch : opts_.LearnerChannels({r})) {
        net_.Subscribe(node->self(), ch);
      }
    }
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
