// SimNetwork + SimNode: the deterministic cluster simulator that stands
// in for the paper's 1 GbE testbed (see DESIGN.md §5). Nodes have a CPU
// with finite capacity, full-duplex NIC links, and optionally a disk
// (sim/disk_storage.h). Messages pay per-message and per-byte CPU costs
// on both sides plus link serialization and propagation delay, so the
// resource that binds (coordinator CPU, acceptor disk, learner NIC)
// emerges from the model exactly as in the paper's figures.
//
// With a non-trivial NetConfig::topology (sim/topology.h), nodes are
// placed in named sites and cross-site legs additionally traverse the
// inter-site links (per-link serialization, propagation, jitter, loss,
// up/down faults); multicast charges each crossed link once and fans
// out at the remote switch. The default topology keeps the single-
// switch model bit-identical to the seed (docs/TOPOLOGY.md).
//
// Execution model per node is single-threaded and run-to-completion:
// protocol callbacks fire when the node's CPU finishes the associated
// work; work is conserved (every charged cost delays later work on the
// same node), so utilisation and saturation points are exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/pool.h"
#include "common/stats.h"
#include "sim/cost_model.h"
#include "sim/scheduler.h"
#include "sim/topology.h"

namespace mrp::sim {

class SimNetwork;

class SimNode final : public Env {
 public:
  SimNode(SimNetwork& net, NodeId id, NodeSpec spec, std::uint64_t seed,
          SiteId site);

  // ---- Env ----
  NodeId self() const override { return id_; }
  TimePoint now() const override;
  void Send(NodeId to, MessagePtr m) override;
  void Multicast(ChannelId channel, MessagePtr m) override;
  TimerId SetTimer(Duration delay, std::function<void()> callback) override;
  void CancelTimer(TimerId id) override;
  Rng& rng() override { return rng_; }
  MetricsRegistry& metrics() override { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // ---- Wiring ----
  void BindProtocol(std::unique_ptr<Protocol> protocol);
  Protocol* protocol() { return protocol_.get(); }
  template <typename T>
  T* protocol_as() {
    return dynamic_cast<T*>(protocol_.get());
  }
  // Runs OnStart through the node's CPU.
  void Start();
  // Crash-with-state-loss restart: cancels timers, installs the fresh
  // protocol object and runs its OnStart.
  void ReplaceProtocol(std::unique_ptr<Protocol> protocol);

  // ---- Fault injection ----
  // While down the node drops all incoming packets; timers that fire are
  // deferred and run on resume (the "paused process" semantics used by
  // the Figure 12 experiment). Messages sent while down are discarded.
  void SetDown(bool down);
  bool down() const { return down_; }

  // ---- Metrics ----
  // CPU utilisation in [0,1] since the previous call.
  double TakeCpuUtilisation();
  RateMeter& rx_meter() { return rx_meter_; }
  RateMeter& tx_meter() { return tx_meter_; }
  // Queueing diagnostics: time packets wait in the ingress link and
  // tasks wait for the CPU.
  Histogram& rx_wait() { return rx_wait_; }
  Histogram& cpu_wait() { return cpu_wait_; }
  const NodeSpec& spec() const { return spec_; }
  // Site (datacenter) this node lives in; 0 in single-site deployments.
  SiteId site() const { return site_; }

  // ---- Simulated disk (SimDiskStorage, SimSnapshotPersistence) ----
  // Queues a `bytes`-byte write behind whatever the disk is already
  // draining (spec().disk_op_latency plus bytes at spec().disk_bw_bps)
  // and runs `done` when it completes, unless the node is down then.
  void DiskWrite(std::size_t bytes, std::function<void()> done);
  // Fault injection: no write issued before `until` completes earlier
  // than it (a stalled controller). Queued writes push out behind it.
  void StallDisk(TimePoint until) {
    disk_free_at_ = std::max(disk_free_at_, until);
  }

  // ---- Internal (SimNetwork) ----
  // Packet hits this node's NIC ingress at `port_arrival`.
  void DeliverPacket(NodeId from, MessagePtr m, std::size_t wire_bytes,
                     TimePoint port_arrival);
  // Serializes `wire_bytes` through the egress link starting no earlier
  // than `ready`; returns the departure time.
  TimePoint TxLinkDepart(std::size_t wire_bytes, TimePoint ready);
  // Charges `cost` of CPU work that becomes ready now and runs `fn` when
  // it completes (skipped if the node is down at completion time).
  template <typename Fn>
  void Execute(Duration cost, Fn&& fn) {
    ExecuteAt(now(), cost, std::forward<Fn>(fn));
  }
  SimNetwork& network() { return net_; }

 private:
  // Execute for work that becomes ready at `ready`. It books the CPU at
  // call time, so a future `ready` blocks everything received before
  // then; only DeliverPacket passes one (the NIC's receive time).
  template <typename Fn>
  void ExecuteAt(TimePoint ready, Duration cost, Fn&& fn);
  Duration Jittered(Duration cost);
  Duration RecvCost(std::size_t bytes);
  Duration SendCost(std::size_t bytes);
  // Books `cost` of CPU work that becomes ready at `ready`; returns when
  // it completes.
  TimePoint ChargeCpu(TimePoint ready, Duration cost);
  void FireTimer(TimerId id, std::function<void()> callback);

  SimNetwork& net_;
  NodeId id_;
  NodeSpec spec_;
  SiteId site_;
  Rng rng_;
  MetricsRegistry metrics_;
  std::unique_ptr<Protocol> protocol_;
  // Hot-path instruments, resolved once at construction.
  Counter* ctr_tx_pkts_ = nullptr;
  Counter* ctr_tx_bytes_ = nullptr;
  Counter* ctr_rx_pkts_ = nullptr;
  Counter* ctr_rx_bytes_ = nullptr;
  Counter* ctr_cpu_tasks_ = nullptr;
  Counter* ctr_cpu_busy_ns_ = nullptr;
  Counter* ctr_rx_drop_down_ = nullptr;
  Gauge* gauge_rx_backlog_ns_ = nullptr;

  bool down_ = false;
  TimePoint cpu_free_at_{0};
  TimePoint tx_link_free_at_{0};
  TimePoint rx_link_free_at_{0};
  TimePoint disk_free_at_{0};
  BusyMeter busy_;
  RateMeter rx_meter_;
  RateMeter tx_meter_;
  Histogram rx_wait_;
  Histogram cpu_wait_;

  // Timers are plain scheduler events; their handle is the TimerId.
  // A timer belongs to the protocol incarnation that set it, so
  // ReplaceProtocol drops the old protocol's timers by bumping the
  // count. Timers that expire while the node is down wait here, with
  // their handles so CancelTimer can still reach them, until it resumes.
  std::uint64_t incarnation_ = 0;
  std::vector<std::pair<TimerId, std::function<void()>>> deferred_timers_;
};

struct NetConfig {
  std::uint64_t seed = 1;
  // Independent per-receiver drop probability (applied to unicast and to
  // each multicast leg). With a non-trivial topology this knob is also
  // the shorthand that sets the loss of every inter-site link whose
  // LinkSpec leaves loss at 0 (docs/TOPOLOGY.md).
  double loss_probability = 0.0;
  NodeSpec default_spec;
  // Site graph. The default (trivial) topology keeps the seed model:
  // one implicit switch, uniform access latency, no inter-site legs.
  Topology topology;
};

class SimNetwork {
 public:
  explicit SimNetwork(NetConfig cfg = {});

  Scheduler& scheduler() { return sched_; }
  TimePoint now() const { return sched_.now(); }
  const NetConfig& config() const { return cfg_; }

  SimNode& AddNode() { return AddNode(cfg_.default_spec); }
  SimNode& AddNode(const NodeSpec& spec) { return AddNode(spec, 0); }
  SimNode& AddNode(const NodeSpec& spec, SiteId site);
  SimNode& node(NodeId id) { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }
  SiteId site_of(NodeId id) const { return nodes_.at(id)->site(); }
  std::size_t site_count() const {
    return topo_ ? topo_->site_count() : 1;
  }

  // ---- Inter-site fault injection (no-ops without a topology) ----
  void SetLinkUp(SiteId a, SiteId b, bool up);
  bool LinkUp(SiteId a, SiteId b) const;
  TopologyRuntime* topology_runtime() { return topo_.get(); }

  // ---- Network-wide fault injection ----
  // Adjusts the independent per-receiver drop probability at runtime
  // (message-loss bursts in fault plans). Applies to every delivery leg;
  // per-link topology loss configured at construction is unaffected.
  void SetLossProbability(double p) { cfg_.loss_probability = p; }
  double loss_probability() const { return cfg_.loss_probability; }

  void Subscribe(NodeId n, ChannelId channel);
  void Unsubscribe(NodeId n, ChannelId channel);

  // Starts every node with a bound protocol.
  void StartAll();
  void RunFor(Duration d) { sched_.RunFor(d); }
  void RunUntil(TimePoint t) { sched_.RunUntil(t); }

  // Internal, called by SimNode.
  void Unicast(SimNode& from, NodeId to, MessagePtr m, TimePoint ready);
  void MulticastSend(SimNode& from, ChannelId channel, MessagePtr m,
                     TimePoint ready);

  // Network-level instruments (drops, packet/leg counts, scheduler
  // dispatch gauges). Scheduler counters are refreshed on access.
  MetricsRegistry& metrics();

  // Cluster-wide observability export: one snapshot per node plus the
  // network-level registry, as a single JSON object (see
  // docs/OBSERVABILITY.md for the schema).
  void WriteMetricsJson(std::ostream& os);

 private:
  // An in-flight delivery leg parked in the scheduler. Pooled so the hot
  // ScheduleArrival path captures one pointer (fits the std::function
  // small-buffer) instead of heap-allocating a ~40-byte closure per
  // packet. Pure allocation strategy: event times and ordering are
  // unchanged, so traces stay byte-identical.
  struct Packet {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    MessagePtr m;
    std::size_t wire_bytes = 0;
    TimePoint arrival{0};
  };

  // Delivers one leg. For cross-site legs, `mcast_fabric` (multicast
  // only) carries the per-site fabric arrival times computed once per
  // packet; unicast legs traverse the topology themselves.
  void ScheduleArrival(NodeId from, NodeId to, MessagePtr m,
                       std::size_t wire_bytes, TimePoint depart,
                       const std::map<SiteId, TimePoint>* mcast_fabric);

  NetConfig cfg_;
  ObjectPool<Packet> packet_pool_;
  Scheduler sched_;
  std::vector<std::unique_ptr<SimNode>> nodes_;
  std::unique_ptr<TopologyRuntime> topo_;
  std::unordered_map<ChannelId, std::vector<NodeId>> channels_;
  std::unordered_map<std::uint64_t, TimePoint> fifo_clamp_;  // (from<<32)|to
  Rng net_rng_;
  MetricsRegistry metrics_;
  Counter* ctr_drops_ = nullptr;
  Counter* ctr_unicast_pkts_ = nullptr;
  Counter* ctr_multicast_legs_ = nullptr;
  // Created lazily, only when some node has a lossy access link, so the
  // default deployment's metrics snapshot stays byte-identical to seed.
  Counter* ctr_access_drops_ = nullptr;
};

template <typename Fn>
void SimNode::ExecuteAt(TimePoint ready, Duration cost, Fn&& fn) {
  net_.scheduler().At(ChargeCpu(ready, cost),
                      [this, fn = std::forward<Fn>(fn)]() mutable {
                        if (!down_) fn();
                      });
}

}  // namespace mrp::sim
