#include "workload.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <functional>
#include <unordered_map>

namespace mrpbench {

namespace {

// Runtime offered load per ring, msgs/s.
constexpr double kInProcRate = 10000;
constexpr double kUdpRate = 2500;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;
  {
    // Figure 5 shape: closed-loop clients saturate two rings; the merge
    // learner closes the loop with delivery acks.
    WorkloadSpec w;
    w.name = "sim_merge_2ring";
    all.push_back(w);
  }
  {
    // Rate-skewed open loop: most merge turns are skips, Delta timers and
    // merge wait dominate.
    WorkloadSpec w;
    w.name = "sim_skew_4ring";
    w.rings = 4;
    w.lambda = 9000;
    w.open_rates = {6000, 2000, 500, 0};
    w.payload = 512;
    w.window = 4096;
    all.push_back(w);
  }
  for (bool udp : {false, true}) {
    // Fixed-rate open loop well below saturation, so delivered/s is the
    // offered rate and host CPU stolen by other tenants shows in latency
    // and CPU per message rather than in a collapsing closed loop.
    WorkloadSpec w;
    w.name = udp ? "rt_udp_2ring" : "rt_inproc_2ring";
    w.sim = false;
    w.udp = udp;
    w.open_rates = udp ? std::vector<double>{kUdpRate, kUdpRate}
                       : std::vector<double>{kInProcRate, kInProcRate};
    w.window = 1024;
    w.payload = 1024;
    // Each UDP-received message pins its 60 kB receive frame while the
    // acceptors retain it; the default 50k-instance retention grows the
    // heap by gigabytes within seconds. 2000 instances bounds it.
    w.trim_keep = 2000;
    w.warmup = mrp::Millis(300);  // settling after set-up, before the window
    // Wall-clock latency also moves with host load; a growing backlog
    // shows as a multiple, not a fraction.
    w.max_latency_growth = 1.0;
    all.push_back(w);
  }
  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Plan MakePlan(const WorkloadSpec& w) {
  Plan p;
  NodeId next = 0;
  for (int r = 0; r < w.rings; ++r) {
    mrp::ringpaxos::RingConfig cfg;
    cfg.ring = static_cast<RingId>(r);
    cfg.group = static_cast<GroupId>(r);
    cfg.data_channel = static_cast<ChannelId>(2 * r);
    cfg.control_channel = static_cast<ChannelId>(2 * r + 1);
    cfg.lambda_per_sec = w.lambda;
    cfg.delta = mrp::Millis(1);
    cfg.batch_bytes = 8 * 1024;
    cfg.ack_submits = w.ack_submits;
    cfg.trim_keep = w.trim_keep;
    std::vector<NodeId> nodes;
    for (int i = 0; i < 2; ++i) {
      cfg.ring_members.push_back(next);
      nodes.push_back(next++);
    }
    // Ring 0's spare takes over when the simulator crashes its
    // coordinator. The runtime injects no crash and has no spare: it would
    // make ring 0's multicasts dearer than ring 1's, and RingNode's
    // Delta timer drops its own handler time from the lambda schedule,
    // so the dearer ring would fall steadily behind at the merge.
    if (r == 0 && w.sim) {
      cfg.spares.push_back(next);
      nodes.push_back(next++);
    }
    p.rings.push_back(cfg);
    p.ring_nodes.push_back(nodes);
  }
  p.learner = next++;
  for (int r = 0; r < w.rings; ++r) {
    if (w.open_rates.empty()) {
      for (int c = 0; c < w.clients_per_ring; ++c) p.clients.push_back({r, next++, 0});
    } else if (w.open_rates[r] > 0) {
      p.clients.push_back({r, next++, w.open_rates[r]});
    }
  }
  p.node_count = next;
  return p;
}

Roles MakeRoles(const WorkloadSpec& w, const Plan& plan, Probe& probe,
                std::vector<NodeStats>* node_stats,
                mrp::multiring::MergeLearner::DeliverFn on_deliver,
                bool runtime_stamps, std::uint64_t seed) {
  Roles roles;
  roles.protocols.resize(plan.node_count);
  roles.ring_nodes.assign(plan.node_count, nullptr);
  roles.probes.assign(plan.node_count, nullptr);
  auto wrap = [&](NodeId id, std::unique_ptr<mrp::Protocol> inner, Layer layer,
                  const mrp::ringpaxos::RingNode* ring_node, ClientGate* gate) {
    if (!probe.traced && gate == nullptr) {
      roles.protocols[id] = std::move(inner);
      return;
    }
    auto wrapped = std::make_unique<ProbeProtocol>(
        std::move(inner), probe, layer, ring_node, gate,
        node_stats != nullptr ? &(*node_stats)[id] : nullptr);
    roles.probes[id] = wrapped.get();
    roles.protocols[id] = std::move(wrapped);
  };

  for (std::size_t r = 0; r < plan.rings.size(); ++r) {
    for (NodeId id : plan.ring_nodes[r]) {
      auto node = std::make_unique<mrp::ringpaxos::RingNode>(plan.rings[r]);
      roles.ring_nodes[id] = node.get();
      wrap(id, std::move(node), Layer::kAcceptor, roles.ring_nodes[id], nullptr);
    }
  }

  mrp::multiring::MergeLearner::Options mo;
  for (const auto& cfg : plan.rings) {
    mrp::ringpaxos::LearnerOptions lo;
    lo.ring = cfg;
    mo.groups.push_back(lo);
  }
  mo.send_delivery_acks = w.delivery_acks;
  const NodeId learner_id = plan.learner;
  mo.on_deliver = [&probe, learner_id, on_deliver = std::move(on_deliver)](
                      GroupId g, const mrp::paxos::ClientMsg& m) {
    if (probe.traced) probe.stages.Delivered(m, learner_id);
    on_deliver(g, m);
  };
  auto learner = std::make_unique<mrp::multiring::MergeLearner>(std::move(mo));
  roles.learner = learner.get();
  wrap(learner_id, std::move(learner), Layer::kMerge, nullptr, nullptr);

  for (const auto& c : plan.clients) {
    auto rec = std::make_unique<ClientRecord>();
    if (runtime_stamps) rec->stamps.reset(new std::atomic<std::int64_t>[ClientRecord::kStampSlots]);
    ClientRecord* raw_rec = rec.get();
    mrp::ringpaxos::ProposerConfig pc;
    pc.ring = plan.rings[c.ring].ring;
    pc.group = plan.rings[c.ring].group;
    pc.coordinator = plan.rings[c.ring].ring_members[0];
    pc.payload_size = w.payload;
    pc.max_outstanding = w.window;
    if (c.rate > 0) pc.schedule = {{TimePoint(0), c.rate}};
    // Runtime set-up ends at the first delivery from every client; a
    // random start offset would only add noise to it.
    if (runtime_stamps) pc.start_jitter = Duration(0);
    pc.on_submit = [raw_rec, &probe, runtime_stamps](const mrp::paxos::ClientMsg& m) {
      raw_rec->submitted.store(m.seq, std::memory_order_relaxed);
      const std::int64_t t = runtime_stamps ? WallNs() : m.sent_at.count();
      if (runtime_stamps) {
        raw_rec->stamps[m.seq % ClientRecord::kStampSlots].store(
            t, std::memory_order_relaxed);
      }
      if (probe.traced) probe.stages.Submitted(m, t);
    };
    auto proposer = std::make_unique<mrp::ringpaxos::Proposer>(pc);
    rec->gate.proposer = proposer.get();
    rec->gate.watch_blocked = c.rate > 0;
    wrap(c.node, std::move(proposer), Layer::kClient, nullptr, &rec->gate);
    // The simulator seeds every node from NetConfig::seed; a runtime
    // node's generator has a fixed seed, so the client's is replaced.
    if (runtime_stamps) {
      roles.probes[c.node]->own_rng = std::make_unique<mrp::Rng>(seed * 1000003 + c.node);
    }
    roles.client_by_node[c.node] = raw_rec;
    roles.clients.push_back(std::move(rec));
  }
  return roles;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

double Percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = static_cast<double>(v[lo]);
  if (lo + 1 >= v.size()) return a;
  const double b = static_cast<double>(
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end()));
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

void AddLayerMetrics(Result& r, const std::map<std::string, double>& values) {
  static const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
      {"sim.events_per_msg", "events/msg"},
      {"sim.cancelled_per_msg", "events/msg"},
      {"sim.pkts_per_msg", "pkts/msg"},
      {"sim.ns_per_event", "ns"},
      {"sim.core_ns_per_msg", "ns/msg"},
      {"sim.wall_ns_per_msg", "ns/msg"},
      {"sim.reference_ms", "ms"},
      {"ringnode.coord_ns_per_msg", "ns/msg"},
      {"ringnode.acceptor_ns_per_msg", "ns/msg"},
      {"ringnode.msgs_per_instance", "msgs/inst"},
      {"ringnode.skip_share", "ratio"},
      {"ringnode.p2_retransmits", "count"},
      {"stage.submit_ms", "ms"},
      {"stage.batch_wait_ms", "ms"},
      {"stage.phase2_ms", "ms"},
      {"stage.decision_fanout_ms", "ms"},
      {"stage.sum_error_frac", "ratio"},
      {"stage.complete_share", "ratio"},
      {"client.ns_per_msg", "ns/msg"},
      {"client.retransmit_frac", "ratio"},
      {"client.acks_per_msg", "acks/msg"},
      {"merge.ns_per_msg", "ns/msg"},
      {"merge.wait_ms", "ms"},
      {"merge.wait_ms_p50", "ms"},
      {"merge.wait_ms_p99", "ms"},
      {"merge.stalls_per_msg", "stalls/msg"},
      {"merge.skip_consumed_share", "ratio"},
      {"loop.wait_us_p50", "us"},
      {"loop.wait_us_p99", "us"},
      {"loop.busy_frac", "ratio"},
      {"loop.timer_fires_per_msg", "fires/msg"},
      {"udp.send_ns_p50", "ns"},
      {"udp.frames_per_tx_batch", "frames/batch"},
      {"udp.frames_per_rx_batch", "frames/batch"},
      {"udp.rx_frames_per_msg", "frames/msg"},
      {"codec.encode_ns_per_msg", "ns/msg"},
      {"codec.decode_ns_per_msg", "ns/msg"},
      {"codec.wire_bytes_per_msg", "B/msg"},
      {"host.steal_frac", "ratio"},
      {"failover.gap_ms", "ms"},
      {"tail.lat_p99_us", "us"},
      {"tail.lat_p999_us", "us"},
      {"trace.overhead_host_ns_per_msg", "ns/msg"},
      {"trace.overhead_lat_p50_us", "us"},
      {"trace.spans", "count"},
  };
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& m : kLayerMetrics) known = known || m.first == name;
    if (!known) r.Fail("internal: unlisted layer metric " + name);
  }
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = values.find(name);
    r.Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

double AddStageMetrics(Result& r, std::map<std::string, double>& layer,
                       const StageTracker::Summary& stages, double e2e_mean_ns) {
  static const char* kNames[StageTracker::kStages] = {
      "stage.submit_ms", "stage.batch_wait_ms", "stage.phase2_ms",
      "stage.decision_fanout_ms", "merge.wait_ms"};
  double sum = 0;
  for (int i = 0; i < StageTracker::kStages; ++i) {
    layer[kNames[i]] = stages.stages[i].mean() / 1e6;
    sum += stages.stages[i].mean();
    if (stages.below_floor[i] > 0) {
      r.Fail(Fmt("stage stamps: %llu %s samples below their floor of %.1f us",
                 static_cast<unsigned long long>(stages.below_floor[i]),
                 StageTracker::kStageNames[i], static_cast<double>(stages.floors[i]) / 1e3));
    }
  }
  const double stamped = Ratio(static_cast<double>(stages.complete),
                               static_cast<double>(stages.window_deliveries));
  layer["stage.complete_share"] = stamped;
  if (stamped < kMinStampedShare) {
    r.Fail(Fmt("stage stamps: %llu of %llu window deliveries have a complete stamp set "
               "(%.4f < %.2f)",
               static_cast<unsigned long long>(stages.complete),
               static_cast<unsigned long long>(stages.window_deliveries), stamped,
               kMinStampedShare));
  }
  const auto& merge_wait = stages.stages[StageTracker::kStages - 1];
  layer["merge.wait_ms_p50"] = static_cast<double>(merge_wait.Quantile(0.5)) / 1e6;
  layer["merge.wait_ms_p99"] = static_cast<double>(merge_wait.Quantile(0.99)) / 1e6;
  const double error = Ratio(std::fabs(sum - e2e_mean_ns), e2e_mean_ns);
  layer["stage.sum_error_frac"] = error;
  return error;
}

void FailOutputCheck(Result& r, std::uint64_t failed, std::uint64_t attempted,
                     std::uint64_t duplicates, std::uint64_t reordered) {
  if (failed == 0) return;
  r.Fail(Fmt("output check: %llu of %llu messages missing, out of order or duplicated "
             "(duplicates %llu, reordered %llu)",
             static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
             static_cast<unsigned long long>(duplicates),
             static_cast<unsigned long long>(reordered)));
}

void GateDeliveredFrac(Result& r, double delivered, double offered, double min_frac) {
  const double frac = offered > 0 ? delivered / offered : 0;
  r.Note(Fmt("gate delivered/offered: %.0f / %.0f = %.4f (bound >= %.2f)", delivered,
             offered, frac, min_frac));
  if (frac < min_frac || frac > 2 - min_frac) {
    r.Fail(Fmt("load gate: delivered/offered %.4f outside [%.2f, %.2f]", frac, min_frac,
               2 - min_frac));
  }
}

void GateRetransmits(Result& r, double retransmit_frac, double max_frac) {
  r.Note(Fmt("gate client.retransmit_frac: %.5f (bound <= %.3f)", retransmit_frac, max_frac));
  if (retransmit_frac > max_frac) {
    r.Fail(Fmt("load gate: client.retransmit_frac %.5f > %.3f", retransmit_frac, max_frac));
  }
}

void GateLatencyGrowth(Result& r, double p50_first, double p50_second, double max_growth) {
  r.Note(Fmt("gate latency growth: p50 first half %.1f us, second half %.1f us "
             "(bound <= +%.0f%%)",
             p50_first / 1e3, p50_second / 1e3, max_growth * 100));
  if (p50_first <= 0 || p50_second > (1 + max_growth) * p50_first) {
    r.Fail(Fmt("load gate: p50 latency grew from %.1f us to %.1f us within the window",
               p50_first / 1e3, p50_second / 1e3));
  }
}

HostTicks ReadHostTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  stat >> cpu;
  for (auto& x : v) stat >> x;
  HostTicks t;
  for (auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double ReferenceNs() {
  // 8192 event chains over 128k keys, 256 B per message: a few MB live,
  // so the loop, like the simulator, feels a neighbour's cache pressure.
  constexpr std::uint64_t kChains = 8192, kKeyMask = (1 << 17) - 1;
  struct Msg {
    std::uint64_t words[32];
  };
  struct Event {
    std::uint64_t at;
    std::uint32_t id;
    std::function<void()> fn;
  };
  auto later = [](const Event& a, const Event& b) {
    return a.at > b.at || (a.at == b.at && a.id > b.id);
  };
  std::vector<Event> heap;
  std::unordered_map<std::uint64_t, std::shared_ptr<const Msg>> inflight;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, now = 0, sink = 0;
  std::uint32_t next_id = 0;
  std::function<void(std::uint64_t)> schedule = [&](std::uint64_t key) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto m = std::make_shared<const Msg>(Msg{{x, key, now}});
    inflight[key] = m;
    heap.push_back({now + (x & 1023), next_id++, [&, key, m] {
                      sink += m->words[0];
                      inflight.erase(key);
                      schedule((key + 1) & kKeyMask);
                    }});
    std::push_heap(heap.begin(), heap.end(), later);
  };
  const std::int64_t t0 = WallNs();
  for (std::uint64_t k = 0; k < kChains; ++k) schedule(k * 16);
  for (int i = 0; i < 100'000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Event ev = std::move(heap.back());
    heap.pop_back();
    now = ev.at;
    ev.fn();
  }
  const std::int64_t t1 = WallNs();
  return static_cast<double>(t1 - t0) + static_cast<double>(sink & 1) * 1e-9;
}

std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace mrpbench
