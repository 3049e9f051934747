#include "sim/network.h"

#include <cassert>
#include <cmath>
#include <set>
#include <utility>

namespace mrp::sim {

// ---------------------------------------------------------------- SimNode

SimNode::SimNode(SimNetwork& net, NodeId id, NodeSpec spec, std::uint64_t seed,
                 SiteId site)
    : net_(net), id_(id), spec_(spec), site_(site), rng_(seed) {
  ctr_tx_pkts_ = &metrics_.counter("nic.tx_pkts");
  ctr_tx_bytes_ = &metrics_.counter("nic.tx_bytes");
  ctr_rx_pkts_ = &metrics_.counter("nic.rx_pkts");
  ctr_rx_bytes_ = &metrics_.counter("nic.rx_bytes");
  ctr_cpu_tasks_ = &metrics_.counter("cpu.tasks");
  ctr_cpu_busy_ns_ = &metrics_.counter("cpu.busy_ns");
  ctr_rx_drop_down_ = &metrics_.counter("nic.rx_dropped_down");
  gauge_rx_backlog_ns_ = &metrics_.gauge("nic.rx_backlog_ns");
}

TimePoint SimNode::now() const { return net_.now(); }

Duration SimNode::Jittered(Duration cost) {
  if (spec_.cpu_jitter <= 0) return cost;
  const double factor = 1.0 + spec_.cpu_jitter * (2.0 * rng_.uniform() - 1.0);
  return Duration(static_cast<std::int64_t>(static_cast<double>(cost.count()) * factor));
}

Duration SimNode::RecvCost(std::size_t bytes) {
  if (spec_.infinite_cpu) return Duration{0};
  return Jittered(spec_.cpu_fixed_recv +
                  Duration(static_cast<std::int64_t>(
                      spec_.cpu_per_byte_recv_ns * static_cast<double>(bytes))));
}

Duration SimNode::SendCost(std::size_t bytes) {
  if (spec_.infinite_cpu) return Duration{0};
  return Jittered(spec_.cpu_fixed_send +
                  Duration(static_cast<std::int64_t>(
                      spec_.cpu_per_byte_send_ns * static_cast<double>(bytes))));
}

TimePoint SimNode::ChargeCpu(TimePoint ready, Duration cost) {
  const TimePoint start = std::max(ready, cpu_free_at_);
  cpu_wait_.Record(start - ready);
  cpu_free_at_ = start + cost;
  busy_.AddBusy(cost);
  ctr_cpu_tasks_->Inc();
  ctr_cpu_busy_ns_->Inc(static_cast<std::uint64_t>(std::max<std::int64_t>(cost.count(), 0)));
  return cpu_free_at_;
}

void SimNode::DiskWrite(std::size_t bytes, std::function<void()> done) {
  const Duration write =
      spec_.disk_op_latency +
      Duration(static_cast<std::int64_t>(static_cast<double>(bytes) * 8.0 /
                                         spec_.disk_bw_bps * 1e9));
  disk_free_at_ = std::max(now(), disk_free_at_) + write;
  if (done) {
    net_.scheduler().At(disk_free_at_, [this, done = std::move(done)] {
      if (!down_) done();
    });
  }
}

void SimNode::Send(NodeId to, MessagePtr m) {
  if (down_) return;
  const std::size_t wire = m->WireSize() + spec_.wire_overhead_bytes;
  const Duration cost = SendCost(wire);
  const TimePoint start = std::max(now(), cpu_free_at_);
  cpu_free_at_ = start + cost;
  busy_.AddBusy(cost);
  tx_meter_.Add(1, wire);
  ctr_tx_pkts_->Inc();
  ctr_tx_bytes_->Inc(wire);
  net_.Unicast(*this, to, std::move(m), cpu_free_at_);
}

void SimNode::Multicast(ChannelId channel, MessagePtr m) {
  if (down_) return;
  const std::size_t wire = m->WireSize() + spec_.wire_overhead_bytes;
  const Duration cost = SendCost(wire);
  const TimePoint start = std::max(now(), cpu_free_at_);
  cpu_free_at_ = start + cost;
  busy_.AddBusy(cost);
  tx_meter_.Add(1, wire);
  ctr_tx_pkts_->Inc();
  ctr_tx_bytes_->Inc(wire);
  net_.MulticastSend(*this, channel, std::move(m), cpu_free_at_);
}

TimerId SimNode::SetTimer(Duration delay, std::function<void()> callback) {
  return net_.scheduler().After(delay, [this, incarnation = incarnation_,
                                        cb = std::move(callback)]() mutable {
    if (incarnation != incarnation_) return;
    FireTimer(net_.scheduler().current(), std::move(cb));
  });
}

void SimNode::CancelTimer(TimerId id) {
  net_.scheduler().Cancel(id);
  std::erase_if(deferred_timers_,
                [id](const auto& timer) { return timer.first == id; });
}

void SimNode::FireTimer(TimerId id, std::function<void()> callback) {
  if (down_) {
    deferred_timers_.emplace_back(id, std::move(callback));
    return;
  }
  Execute(spec_.infinite_cpu ? Duration{0} : spec_.cpu_timer_cost,
          std::move(callback));
}

void SimNode::BindProtocol(std::unique_ptr<Protocol> protocol) {
  protocol_ = std::move(protocol);
}

void SimNode::Start() {
  assert(protocol_ != nullptr);
  Execute(Duration{0}, [this] { protocol_->OnStart(*this); });
}

void SimNode::ReplaceProtocol(std::unique_ptr<Protocol> protocol) {
  ++incarnation_;
  deferred_timers_.clear();
  protocol_ = std::move(protocol);
  if (!down_) Start();
}

void SimNode::SetDown(bool down) {
  if (down_ == down) return;
  down_ = down;
  if (!down_) {
    // A paused process resumes: its CPU was idle while down, and every
    // timer that expired in the meantime fires now.
    cpu_free_at_ = std::max(cpu_free_at_, now());
    auto expired = std::move(deferred_timers_);
    deferred_timers_.clear();
    for (auto& [id, callback] : expired) FireTimer(id, std::move(callback));
  }
}

double SimNode::TakeCpuUtilisation() { return busy_.TakeUtilisation(now()); }

void SimNode::DeliverPacket(NodeId from, MessagePtr m, std::size_t wire_bytes,
                            TimePoint port_arrival) {
  if (down_ || protocol_ == nullptr) {
    if (down_) ctr_rx_drop_down_->Inc();
    return;
  }
  // NIC ingress serialization.
  const Duration ser = Duration(static_cast<std::int64_t>(
      static_cast<double>(wire_bytes) * 8.0 / spec_.link_bw_bps * 1e9));
  rx_wait_.Record(std::max(Duration{0}, rx_link_free_at_ - port_arrival));
  rx_link_free_at_ = std::max(port_arrival, rx_link_free_at_) + ser;
  rx_meter_.Add(1, wire_bytes);
  ctr_rx_pkts_->Inc();
  ctr_rx_bytes_->Inc(wire_bytes);
  // Ingress queue depth as seen by this packet: how far the NIC is
  // behind the wire right now.
  gauge_rx_backlog_ns_->Set(std::max<std::int64_t>(
      0, (rx_link_free_at_ - port_arrival).count()));
  const Duration cost = RecvCost(wire_bytes);
  ExecuteAt(rx_link_free_at_, cost, [this, from, m = std::move(m)] {
    protocol_->OnMessage(*this, from, m);
  });
}

TimePoint SimNode::TxLinkDepart(std::size_t wire_bytes, TimePoint ready) {
  const Duration ser = Duration(static_cast<std::int64_t>(
      static_cast<double>(wire_bytes) * 8.0 / spec_.link_bw_bps * 1e9));
  tx_link_free_at_ = std::max(ready, tx_link_free_at_) + ser;
  return tx_link_free_at_;
}

// ------------------------------------------------------------- SimNetwork

SimNetwork::SimNetwork(NetConfig cfg) : cfg_(cfg), net_rng_(cfg.seed) {
  ctr_drops_ = &metrics_.counter("net.dropped_pkts");
  ctr_unicast_pkts_ = &metrics_.counter("net.unicast_pkts");
  ctr_multicast_legs_ = &metrics_.counter("net.multicast_legs");
  if (!cfg_.topology.trivial()) {
    topo_ = std::make_unique<TopologyRuntime>(cfg_.topology, metrics_,
                                              cfg_.loss_probability);
  }
}

SimNode& SimNetwork::AddNode(const NodeSpec& spec, SiteId site) {
  assert(site < site_count());
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<SimNode>(
      *this, id, spec, cfg_.seed * 0x9e3779b97f4a7c15ULL + id + 1, site));
  if (spec.link_loss > 0 && ctr_access_drops_ == nullptr) {
    ctr_access_drops_ = &metrics_.counter("net.access_link_drops");
  }
  return *nodes_.back();
}

void SimNetwork::SetLinkUp(SiteId a, SiteId b, bool up) {
  if (topo_) topo_->SetLinkUp(a, b, up);
}

bool SimNetwork::LinkUp(SiteId a, SiteId b) const {
  return topo_ ? topo_->LinkUp(a, b) : true;
}

void SimNetwork::Subscribe(NodeId n, ChannelId channel) {
  auto& subs = channels_[channel];
  for (NodeId s : subs) {
    if (s == n) return;
  }
  subs.push_back(n);
}

void SimNetwork::Unsubscribe(NodeId n, ChannelId channel) {
  auto it = channels_.find(channel);
  if (it == channels_.end()) return;
  std::erase(it->second, n);
}

void SimNetwork::StartAll() {
  for (auto& node : nodes_) {
    if (node->protocol() != nullptr) node->Start();
  }
}

void SimNetwork::ScheduleArrival(NodeId from, NodeId to, MessagePtr m,
                                 std::size_t wire_bytes, TimePoint depart,
                                 const std::map<SiteId, TimePoint>* mcast_fabric) {
  if (cfg_.loss_probability > 0 && net_rng_.chance(cfg_.loss_probability)) {
    ctr_drops_->Inc();
    return;  // dropped in the network
  }
  SimNode& sender = *nodes_[from];
  SimNode& receiver = *nodes_[to];
  // Access-link loss (node <-> site switch), independent on both ends.
  const double access_loss =
      1.0 - (1.0 - sender.spec().link_loss) * (1.0 - receiver.spec().link_loss);
  if (access_loss > 0 && net_rng_.chance(access_loss)) {
    ctr_drops_->Inc();
    if (ctr_access_drops_ != nullptr) ctr_access_drops_->Inc();
    return;
  }
  Duration jitter{0};
  if (sender.spec().link_jitter.count() > 0) {
    jitter = Duration(static_cast<std::int64_t>(
        net_rng_.uniform() * static_cast<double>(sender.spec().link_jitter.count())));
  }
  TimePoint arrival = depart + sender.spec().link_latency + jitter;
  if (sender.site() != receiver.site()) {
    // Cross-site: the packet enters the local fabric after the access
    // latency, crosses the inter-site links (per-link queueing,
    // serialization, propagation, jitter and loss), and fans out at the
    // remote switch. Multicast packets traversed the tree once in
    // MulticastSend; unicast traverses here.
    std::optional<TimePoint> fabric;
    if (mcast_fabric != nullptr) {
      auto fit = mcast_fabric->find(receiver.site());
      if (fit != mcast_fabric->end()) fabric = fit->second;
    } else if (topo_ != nullptr) {
      fabric = topo_->Traverse(sender.site(), receiver.site(),
                               depart + sender.spec().link_latency, wire_bytes,
                               net_rng_);
    }
    if (!fabric) {
      ctr_drops_->Inc();  // lost or unroutable on the WAN path
      return;
    }
    arrival = *fabric + jitter;
  }
  // Per-directed-pair FIFO: switched Ethernet / TCP links do not reorder
  // packets between the same two endpoints (LCR's correctness and Ring
  // Paxos's ring traffic rely on this). Jitter still varies inter-packet
  // gaps but never crosses packets on one link.
  TimePoint& last = fifo_clamp_[(static_cast<std::uint64_t>(from) << 32) | to];
  if (arrival < last) arrival = last;
  last = arrival;
  Packet* p = packet_pool_.Acquire();
  p->from = from;
  p->to = to;
  p->m = std::move(m);
  p->wire_bytes = wire_bytes;
  p->arrival = arrival;
  sched_.At(arrival, [this, p] {
    nodes_[p->to]->DeliverPacket(p->from, std::move(p->m), p->wire_bytes,
                                 p->arrival);
    packet_pool_.Release(p);
  });
}

void SimNetwork::Unicast(SimNode& from, NodeId to, MessagePtr m, TimePoint ready) {
  assert(to < nodes_.size());
  const std::size_t wire = m->WireSize() + from.spec().wire_overhead_bytes;
  const TimePoint depart = from.TxLinkDepart(wire, ready);
  ctr_unicast_pkts_->Inc();
  ScheduleArrival(from.self(), to, std::move(m), wire, depart,
                  /*mcast_fabric=*/nullptr);
}

void SimNetwork::MulticastSend(SimNode& from, ChannelId channel, MessagePtr m,
                               TimePoint ready) {
  auto it = channels_.find(channel);
  if (it == channels_.end()) return;
  const std::size_t wire = m->WireSize() + from.spec().wire_overhead_bytes;
  // ip-multicast: the sender serializes the packet once; the switch
  // replicates it to every subscribed port.
  const TimePoint depart = from.TxLinkDepart(wire, ready);
  // Cross-site fan-out is charged per crossed inter-site link, not per
  // subscriber: compute the per-site fabric arrival times once.
  std::map<SiteId, TimePoint> fabric;
  if (topo_ != nullptr) {
    std::set<SiteId> dest_sites;
    for (NodeId to : it->second) {
      if (to == from.self()) continue;
      const SiteId s = nodes_[to]->site();
      if (s != from.site()) dest_sites.insert(s);
    }
    if (!dest_sites.empty()) {
      fabric = topo_->TraverseTree(from.site(), dest_sites,
                                   depart + from.spec().link_latency, wire,
                                   net_rng_);
    }
  }
  for (NodeId to : it->second) {
    if (to == from.self()) continue;
    ctr_multicast_legs_->Inc();
    ScheduleArrival(from.self(), to, m, wire, depart, topo_ ? &fabric : nullptr);
  }
}

MetricsRegistry& SimNetwork::metrics() {
  // Mirror the scheduler's dispatch counters as gauges so one snapshot
  // carries the whole picture.
  metrics_.gauge("sched.events_run").Set(static_cast<std::int64_t>(sched_.events_run()));
  metrics_.gauge("sched.events_scheduled")
      .Set(static_cast<std::int64_t>(sched_.events_scheduled()));
  metrics_.gauge("sched.events_cancelled")
      .Set(static_cast<std::int64_t>(sched_.events_cancelled()));
  metrics_.gauge("sched.pending").Set(static_cast<std::int64_t>(sched_.pending()));
  return metrics_;
}

void SimNetwork::WriteMetricsJson(std::ostream& os) {
  os << "{\"sim_time_ns\":" << now().count() << ",\"net\":";
  metrics().TakeSnapshot().WriteJson(os);
  os << ",\"nodes\":{";
  bool first = true;
  for (const auto& node : nodes_) {
    if (!first) os << ',';
    first = false;
    os << '"' << node->self() << "\":";
    node->metrics().TakeSnapshot().WriteJson(os);
  }
  os << "}}";
}

}  // namespace mrp::sim
