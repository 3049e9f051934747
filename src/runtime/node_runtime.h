// NodeRuntime: hosts one protocol object on a real event loop + real
// transport, implementing the same Env interface the simulator provides.
// It attaches its loop to the transport, so over UDP the loop also reads
// the node's sockets: one thread per node runs its timers, its receive
// path and its handlers. Received messages reach the protocol through
// a Post onto that loop (a Post from the loop itself wakes nothing), so
// every handler runs to completion. LocalCluster wires a whole
// multi-node deployment inside one process, over either the in-process
// bus or UDP.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/env.h"
#include "multiring/deployment_spec.h"
#include "multiring/merge_learner.h"
#include "ringpaxos/proposer.h"
#include "runtime/event_loop.h"
#include "runtime/inproc.h"
#include "runtime/transport.h"
#include "runtime/udp.h"

namespace mrp::runtime {

class FileStorage;

class NodeRuntime final : public Env {
 public:
  NodeRuntime(NodeId self, std::unique_ptr<Protocol> protocol, Transport& transport)
      : self_(self), protocol_(std::move(protocol)), transport_(transport),
        rng_(0x5eed0000ULL + self) {
    transport_.Attach(loop_);
    transport_.SetReceiver([this](NodeId from, MessagePtr msg) {
      loop_.Post([this, from, msg = std::move(msg)] {
        protocol_->OnMessage(*this, from, msg);
      });
    });
  }

  // ---- Env ----
  NodeId self() const override { return self_; }
  TimePoint now() const override { return loop_.now(); }
  void Send(NodeId to, MessagePtr m) override { transport_.Send(to, std::move(m)); }
  void Multicast(ChannelId channel, MessagePtr m) override {
    transport_.Multicast(channel, std::move(m));
  }
  TimerId SetTimer(Duration delay, std::function<void()> cb) override {
    return loop_.SetTimer(delay, std::move(cb));
  }
  void CancelTimer(TimerId id) override { loop_.CancelTimer(id); }
  Rng& rng() override { return rng_; }

  // ---- Lifecycle ----
  void Start() {
    loop_.Start();
    loop_.Post([this] { protocol_->OnStart(*this); });
  }
  void Stop() { loop_.Stop(); }

  Protocol* protocol() { return protocol_.get(); }
  template <typename T>
  T* protocol_as() {
    return dynamic_cast<T*>(protocol_.get());
  }
  EventLoop& loop() { return loop_; }

  // Runs `fn` on the node's loop thread and waits for completion.
  void RunOnLoop(std::function<void()> fn);

  // Periodically runs FileStorage::MaybeCompact(min_bytes) on the node's
  // loop thread (where all storage access happens), every `interval`.
  // `storage` must outlive the runtime. Call before or after Start().
  void EnableLogCompaction(FileStorage& storage, Duration interval,
                           std::uint64_t min_bytes = 1 << 20);

 private:
  NodeId self_;
  std::unique_ptr<Protocol> protocol_;
  Transport& transport_;
  EventLoop loop_;
  Rng rng_;
};

// A whole cluster in one process. Transport is either the lossless
// in-proc bus or UDP sockets on loopback (with real ip-multicast). It
// instantiates a multiring::DeploymentSpec the way SimDeployment does:
// the ring nodes come first, in the spec's id order, then the builders
// add learners, proposers and clients by ring index, so one spec yields
// the same RingConfigs and node ids on the simulator and here.
class LocalCluster {
 public:
  enum class Kind { kInProc, kUdp };

  // Creates the spec's ring nodes (in-memory acceptor storage).
  LocalCluster(multiring::DeploymentSpec spec, Kind kind, UdpConfig udp = {});
  // No rings: every node comes from AddNode (tests of the bus, and of
  // acceptors with their own storage).
  explicit LocalCluster(Kind kind, UdpConfig udp = {})
      : kind_(kind), udp_cfg_(std::move(udp)) {
    spec_.n_rings = 0;
  }
  ~LocalCluster() { Stop(); }

  ringpaxos::RingConfig ring(int i) const { return spec_.Ring(i); }

  // Learner node of the given rings (by ring index): `make(id, groups)`
  // returns the protocol, built from one LearnerOptions per ring, and
  // the node joins each ring's data and control channels.
  template <typename Make>
  auto* AddLearnerNode(const std::vector<int>& ring_indices, Make&& make) {
    auto protocol = make(static_cast<NodeId>(nodes_.size()),
                         spec_.LearnerGroups(ring_indices));
    auto* raw = protocol.get();
    AddNode(std::move(protocol), spec_.LearnerChannels(ring_indices));
    return raw;
  }
  // `opts.groups` is filled here.
  multiring::MergeLearner* AddMergeLearner(
      const std::vector<int>& ring_indices,
      multiring::MergeLearner::Options opts = {}) {
    return AddLearnerNode(ring_indices, [&opts](NodeId, auto groups) {
      opts.groups = std::move(groups);
      return std::make_unique<multiring::MergeLearner>(std::move(opts));
    });
  }
  // Fills the config's ring, group and initial coordinator.
  ringpaxos::Proposer* AddProposer(int idx, ringpaxos::ProposerConfig cfg);
  // A client joins the listed rings' control channels.
  NodeRuntime& AddClient(std::unique_ptr<Protocol> protocol,
                         const std::vector<int>& ring_indices) {
    return node(
        AddNode(std::move(protocol), spec_.ClientChannels(ring_indices)));
  }

  // Adds a node with explicit subscriptions; returns its id.
  // Subscriptions must be registered before Start().
  NodeId AddNode(std::unique_ptr<Protocol> protocol,
                 const std::vector<ChannelId>& subscriptions = {});

  NodeRuntime& node(NodeId id) { return *nodes_.at(id); }
  // Node `id`'s UDP transport (kUdp only).
  UdpTransport& udp(NodeId id) { return *udp_.at(id); }
  std::size_t size() const { return nodes_.size(); }

  void Start();
  void Stop();

 private:
  multiring::DeploymentSpec spec_;
  Kind kind_;
  UdpConfig udp_cfg_;
  InProcBus bus_;
  // Declared before the nodes, so each node (and the loop that reads its
  // transport) is destroyed before its transport.
  std::vector<std::unique_ptr<UdpTransport>> udp_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  bool started_ = false;
};

}  // namespace mrp::runtime
