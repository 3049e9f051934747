// Simulator workloads. One repetition builds the deployment on the
// discrete-event simulator from the workload seed, warms it up, measures
// a fixed simulated window, crashes ring 0's coordinator, then freezes
// the clients and drains. Simulated-time results repeat exactly per
// seed; repetitions run until --seconds of wall time have passed and the
// host-speed numbers are their medians.
#include <malloc.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "sim/network.h"
#include "workload.h"

namespace mrpbench {

namespace {

struct SimRep {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double wall_ns_per_msg = 0;
  std::uint64_t delivered = 0;  // in the window
  double window_s = 0;          // simulated
  // Delivery rate over the window, from the first to the last delivery
  // in it (exact simulated times, so it resolves seed-level variation).
  double msgs_per_s = 0;
  // Window latencies (simulated ns), summarised so that the samples of
  // earlier repetitions do not add to later repetitions' resident set.
  std::size_t samples = 0;
  std::uint64_t lat_digest = 0;  // hash of every sample, in delivery order
  double p50 = 0, p99 = 0, p999 = 0, p50_first = 0, p50_second = 0;
  double failover_gap_ms = 0;
  std::uint64_t digest = 0, fingerprint = 0;
  std::uint64_t attempted = 0, failed = 0, duplicates = 0, reordered = 0;
  std::uint64_t resubmitted = 0;  // client resends after the crash
  bool ever_blocked = false;
  double offered = 0;
  double retransmit_frac = 0;
  std::map<std::string, double> layer;  // traced reps only
  double stage_sum_error = 0;
  Result stage_check;  // stamp completeness and floors, traced reps only
};

std::uint64_t SumCounter(mrp::sim::SimNetwork& net, const std::vector<NodeId>& nodes,
                         const std::string& name) {
  std::uint64_t total = 0;
  for (NodeId id : nodes) total += net.node(id).metrics().CounterValue(name);
  return total;
}

struct Counts {
  std::uint64_t events = 0, cancelled = 0, pkts = 0;
  std::uint64_t submitted = 0, retransmits = 0, acks = 0;
  std::uint64_t p2_retransmits = 0, decided_msgs = 0, decided_insts = 0, skips = 0;
  std::uint64_t stalls = 0, consumed = 0, skip_consumed = 0;
  std::uint64_t layer_ns[kLayers] = {};
  std::uint64_t timer_fires = 0;
  std::uint64_t codec_encode = 0, codec_decode = 0, codec_bytes = 0;
  std::int64_t wall_ns = 0;
};

Counts TakeCounts(mrp::sim::SimNetwork& net, const Plan& plan, const Roles& roles,
                  const Probe& probe) {
  Counts c;
  c.events = net.scheduler().events_run();
  c.cancelled = net.scheduler().events_cancelled();
  c.pkts = net.metrics().CounterValue("net.unicast_pkts") +
           net.metrics().CounterValue("net.multicast_legs");
  std::vector<NodeId> clients, ring_nodes;
  for (const auto& cl : plan.clients) clients.push_back(cl.node);
  for (const auto& ids : plan.ring_nodes) ring_nodes.insert(ring_nodes.end(), ids.begin(), ids.end());
  c.submitted = SumCounter(net, clients, "proposer.submitted");
  c.retransmits = SumCounter(net, clients, "proposer.retransmits");
  c.acks = SumCounter(net, clients, "proposer.acks_rx");
  c.p2_retransmits = SumCounter(net, ring_nodes, "ring.p2_retransmits");
  for (NodeId id : ring_nodes) {
    const auto* rn = roles.ring_nodes[id];
    c.decided_msgs += rn->is_coordinator() ? rn->decided_msgs() : 0;
    c.decided_insts += rn->is_coordinator() ? rn->decided_instances() : 0;
    c.skips += rn->is_coordinator() ? rn->skip_proposals() : 0;
  }
  const auto& lm = net.node(plan.learner).metrics();
  c.stalls = lm.CounterValue("merge.stalls");
  for (const auto& ring : plan.rings) {
    const std::string prefix = "merge.g" + std::to_string(ring.group) + ".";
    c.consumed += lm.CounterValue(prefix + "consumed");
    c.skip_consumed += lm.CounterValue(prefix + "skip_consumed");
  }
  for (int l = 0; l < kLayers; ++l) c.layer_ns[l] = probe.layer_self_ns[l].Get();
  c.timer_fires = probe.timer_fires.Get();
  c.codec_encode = probe.codec_encode_ns.Get();
  c.codec_decode = probe.codec_decode_ns.Get();
  c.codec_bytes = probe.codec_bytes.Get();
  c.wall_ns = WallNs();
  return c;
}

// Simulated time between the crash and freezing the clients: enough for
// the spare to take over and the clients to resubmit.
constexpr Duration kAfterCrash = mrp::Millis(700);

SimRep RunRep(const WorkloadSpec& w, std::uint64_t seed, bool traced, SpanLog* spans) {
  SimRep rep;
  malloc_trim(0);  // hand back what earlier repetitions freed
  ResetPeakRss();
  const std::int64_t setup0 = WallNs();
  mrp::sim::NetConfig nc;
  nc.seed = seed;
  mrp::sim::SimNetwork net(nc);
  const Plan plan = MakePlan(w);
  Probe probe(traced, [&net] { return static_cast<std::int64_t>(net.now().count()); },
              /*sim_clock=*/true, traced ? spans : nullptr);
  // Independent floors: a Submit crosses one link, phase 2 a P2A
  // multicast and the P2B back, the decision one link to the learner.
  const std::int64_t hop = nc.default_spec.link_latency.count();
  probe.stages.SetStageFloors({hop, 0, 2 * hop, hop, 0});

  DeliveryCheck check;
  bool in_window = false, crashed = false;
  TimePoint mid{0}, last_delivery{0};
  Duration max_gap{0};
  std::vector<std::int64_t> lat_ns, first, second;
  TimePoint first_in_window{-1}, last_in_window{0};
  auto on_deliver = [&](GroupId g, const mrp::paxos::ClientMsg& m) {
    check.OnDeliver(g, m.proposer, m.seq);
    const TimePoint now = net.now();
    if (in_window) {
      const std::int64_t lat = (now - m.sent_at).count();
      rep.lat_digest = (rep.lat_digest ^ static_cast<std::uint64_t>(lat)) * 0x100000001b3ULL;
      lat_ns.push_back(lat);
      (now < mid ? first : second).push_back(lat);
      ++rep.delivered;
      if (first_in_window.count() < 0) first_in_window = now;
      last_in_window = now;
    }
    if (crashed) max_gap = std::max(max_gap, now - last_delivery);
    last_delivery = now;
  };
  Roles roles =
      MakeRoles(w, plan, probe, nullptr, on_deliver, /*runtime_stamps=*/false, seed);

  for (NodeId id = 0; id < plan.node_count; ++id) {
    mrp::sim::NodeSpec spec = nc.default_spec;
    spec.infinite_cpu = roles.client_by_node.count(id) > 0;  // clients never bind
    auto& node = net.AddNode(spec);
    node.BindProtocol(std::move(roles.protocols[id]));
  }
  for (std::size_t r = 0; r < plan.rings.size(); ++r) {
    for (NodeId id : plan.ring_nodes[r]) {
      net.Subscribe(id, plan.rings[r].data_channel);
      net.Subscribe(id, plan.rings[r].control_channel);
    }
    net.Subscribe(plan.learner, plan.rings[r].data_channel);
    net.Subscribe(plan.learner, plan.rings[r].control_channel);
  }
  for (const auto& c : plan.clients) net.Subscribe(c.node, plan.rings[c.ring].control_channel);
  net.StartAll();
  net.RunFor(w.warmup);
  rep.setup_s = static_cast<double>(WallNs() - setup0) / 1e9;

  // ---- measured window ----
  const Counts c0 = TakeCounts(net, plan, roles, probe);
  mid = net.now() + w.measure / 2;
  in_window = true;
  probe.stages.SetRecording(true);
  net.RunFor(w.measure);
  in_window = false;
  probe.stages.SetRecording(false);
  const Counts c1 = TakeCounts(net, plan, roles, probe);
  rep.window_s = mrp::ToSeconds(w.measure);
  if (rep.delivered > 1) {
    rep.msgs_per_s = static_cast<double>(rep.delivered - 1) /
                     mrp::ToSeconds(last_in_window - first_in_window);
  }
  const double delivered = static_cast<double>(rep.delivered);
  const double wall_ns = static_cast<double>(c1.wall_ns - c0.wall_ns);
  rep.wall_ns_per_msg = Ratio(wall_ns, delivered);
  rep.samples = lat_ns.size();
  double e2e_sum = 0;
  for (std::int64_t v : lat_ns) e2e_sum += static_cast<double>(v);
  rep.p50 = Percentile(lat_ns, 0.5);
  rep.p99 = Percentile(lat_ns, 0.99);
  rep.p999 = Percentile(lat_ns, 0.999);
  rep.p50_first = Percentile(first, 0.5);
  rep.p50_second = Percentile(second, 0.5);
  const double submitted = static_cast<double>(c1.submitted - c0.submitted);
  rep.retransmit_frac = Ratio(static_cast<double>(c1.retransmits - c0.retransmits), submitted);
  if (w.open_rates.empty()) {
    rep.offered = submitted;
  } else {
    for (double rate : w.open_rates) rep.offered += rate * rep.window_s;
  }

  // ---- crash ring 0's coordinator, then drain ----
  std::vector<NodeId> client_nodes;
  for (const auto& cl : plan.clients) client_nodes.push_back(cl.node);
  const std::uint64_t dups_before_crash = check.duplicates();
  const std::uint64_t resends_before_crash =
      SumCounter(net, client_nodes, "proposer.retransmits");
  crashed = true;
  last_delivery = net.now();
  net.node(plan.ring_nodes[0][0]).SetDown(true);
  net.RunFor(kAfterCrash);
  max_gap = std::max(max_gap, net.now() - last_delivery);
  crashed = false;
  rep.failover_gap_ms = static_cast<double>(max_gap.count()) / 1e6;
  for (auto& cl : roles.clients) {
    rep.ever_blocked = rep.ever_blocked || cl->gate.ever_blocked.load();
    cl->gate.frozen.store(true);
  }
  std::map<NodeId, std::uint64_t> submitted_by;
  for (const auto& [node, rec] : roles.client_by_node) submitted_by[node] = rec->submitted.load();
  for (int i = 0; i < 300 && check.Missing(submitted_by) > 0; ++i) net.RunFor(mrp::Millis(10));
  for (const auto& [node, n] : submitted_by) rep.attempted += n;
  rep.duplicates = check.duplicates();
  rep.reordered = check.reordered();
  rep.resubmitted = SumCounter(net, client_nodes, "proposer.retransmits") - resends_before_crash;
  rep.failed = UnexplainedFailures(check.Missing(submitted_by), rep.reordered,
                                   dups_before_crash, rep.duplicates, rep.resubmitted);
  rep.digest = check.digest();
  rep.fingerprint = roles.learner->Fingerprint();
  rep.peak_rss_mb = PeakRssMb();

  if (traced) {
    auto& L = rep.layer;
    L["sim.events_per_msg"] = Ratio(static_cast<double>(c1.events - c0.events), delivered);
    L["sim.cancelled_per_msg"] =
        Ratio(static_cast<double>(c1.cancelled - c0.cancelled), delivered);
    L["sim.pkts_per_msg"] = Ratio(static_cast<double>(c1.pkts - c0.pkts), delivered);
    L["sim.ns_per_event"] = Ratio(wall_ns, static_cast<double>(c1.events - c0.events));
    double roles_ns = 0;
    for (int l = 0; l < kLayers; ++l) roles_ns += static_cast<double>(c1.layer_ns[l] - c0.layer_ns[l]);
    L["sim.core_ns_per_msg"] = Ratio(wall_ns - roles_ns, delivered);
    auto layer_ns = [&](Layer l) {
      return Ratio(static_cast<double>(c1.layer_ns[static_cast<int>(l)] -
                                       c0.layer_ns[static_cast<int>(l)]),
                   delivered);
    };
    L["ringnode.coord_ns_per_msg"] = layer_ns(Layer::kCoordinator);
    L["ringnode.acceptor_ns_per_msg"] = layer_ns(Layer::kAcceptor);
    L["client.ns_per_msg"] = layer_ns(Layer::kClient);
    L["merge.ns_per_msg"] = layer_ns(Layer::kMerge);
    const double insts = static_cast<double>(c1.decided_insts - c0.decided_insts);
    const double skips = static_cast<double>(c1.skips - c0.skips);
    L["ringnode.msgs_per_instance"] =
        Ratio(static_cast<double>(c1.decided_msgs - c0.decided_msgs), insts - skips);
    L["ringnode.skip_share"] = Ratio(skips, insts);
    L["ringnode.p2_retransmits"] = static_cast<double>(c1.p2_retransmits - c0.p2_retransmits);
    L["client.retransmit_frac"] = rep.retransmit_frac;
    L["client.acks_per_msg"] = Ratio(static_cast<double>(c1.acks - c0.acks), submitted);
    L["merge.stalls_per_msg"] = Ratio(static_cast<double>(c1.stalls - c0.stalls), delivered);
    L["merge.skip_consumed_share"] =
        Ratio(static_cast<double>(c1.skip_consumed - c0.skip_consumed),
              static_cast<double>(c1.consumed - c0.consumed));
    L["loop.timer_fires_per_msg"] =
        Ratio(static_cast<double>(c1.timer_fires - c0.timer_fires), delivered);
    L["codec.encode_ns_per_msg"] =
        Ratio(static_cast<double>(c1.codec_encode - c0.codec_encode), delivered);
    L["codec.decode_ns_per_msg"] =
        Ratio(static_cast<double>(c1.codec_decode - c0.codec_decode), delivered);
    L["codec.wire_bytes_per_msg"] =
        Ratio(static_cast<double>(c1.codec_bytes - c0.codec_bytes), delivered);
    rep.stage_sum_error = AddStageMetrics(rep.stage_check, L, probe.stages.Take(),
                                          Ratio(e2e_sum, static_cast<double>(rep.samples)));
  }
  return rep;
}

// Histogram bucket width: the tolerance of the stage sum rule.
constexpr double kBucketError = 1.0 / 16;

// Reference-loop time that host times are scaled to.
constexpr double kReferenceUnitNs = 50e6;

}  // namespace

Result RunSim(const WorkloadSpec& w, const RunOptions& opts) {
  Result r;
  SpanLog spans(100'000);
  const std::int64_t deadline = WallNs() + static_cast<std::int64_t>(opts.seconds * 1e9);
  // Repetition 0 warms the host (page faults, caches) and only takes
  // part in the output checks. Untraced runs: every repetition
  // untraced. Traced runs alternate, so the tracing overhead compares
  // repetitions of the same length.
  const SimRep ref = RunRep(w, opts.seed, false, &spans);
  const int min_reps = opts.trace ? 4 : 3;
  std::vector<SimRep> plain, traced;
  std::vector<double> reference;
  const HostTicks ticks0 = ReadHostTicks();
  for (int i = 0; i < 1000; ++i) {
    const bool trace_rep = opts.trace && i % 2 == 1;
    reference.push_back(ReferenceNs());
    SimRep rep = RunRep(w, opts.seed, trace_rep, &spans);
    (trace_rep ? traced : plain).push_back(std::move(rep));
    if (i + 1 >= min_reps && WallNs() >= deadline) break;
  }

  // Output checks: exactly-once in order, and identical runs per seed.
  r.attempted = ref.attempted;
  r.failed = ref.failed;
  FailOutputCheck(r, ref.failed, ref.attempted, ref.duplicates, ref.reordered);
  r.Note(Fmt("failover: %llu messages resubmitted to the new coordinator, %llu delivered twice",
             static_cast<unsigned long long>(ref.resubmitted),
             static_cast<unsigned long long>(ref.duplicates)));
  for (const auto* reps : {&plain, &traced}) {
    for (const SimRep& rep : *reps) {
      if (rep.digest != ref.digest || rep.fingerprint != ref.fingerprint ||
          rep.lat_digest != ref.lat_digest || rep.msgs_per_s != ref.msgs_per_s ||
          rep.failover_gap_ms != ref.failover_gap_ms) {
        r.Fail("output check: two runs of one seed differ (delivery digest, "
               "MergeLearner::Fingerprint or simulated timings)");
      }
    }
  }
  r.Note(Fmt("seed %llu: delivery digest %016llx, learner fingerprint %016llx, %zu reps",
             static_cast<unsigned long long>(opts.seed),
             static_cast<unsigned long long>(ref.digest),
             static_cast<unsigned long long>(ref.fingerprint), 1 + plain.size() + traced.size()));

  // Load-honesty gates.
  GateDeliveredFrac(r, static_cast<double>(ref.delivered), ref.offered, kMinDeliveredFrac);
  GateRetransmits(r, ref.retransmit_frac, kMaxRetransmitFrac);
  GateLatencyGrowth(r, ref.p50_first, ref.p50_second, w.max_latency_growth);
  if (!w.open_rates.empty()) {
    r.Note(Fmt("gate open-loop window: %s", ref.ever_blocked ? "blocked" : "never blocked"));
    if (ref.ever_blocked) r.Fail("load gate: an open-loop proposer blocked on its window");
  }

  const double p50 = ref.p50 / 1e3;
  const double p99 = ref.p99 / 1e3;
  const double p999 = ref.p999 / 1e3;
  r.Note(Fmt("latency samples: %zu (simulated time)", ref.samples));

  // Host speed on a shared machine drifts by tens of percent over
  // minutes, and the simulator's wall time follows it. Host times are
  // therefore scaled to a host that runs the reference loop in
  // kReferenceUnitNs; the loop ran right before every repetition, and
  // each repetition is scaled by its own.
  std::vector<double> host, setup, rss, scaled_host, scaled_setup;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const SimRep& rep = plain[i];
    const double rep_scale = kReferenceUnitNs / reference[opts.trace ? 2 * i : i];
    host.push_back(rep.wall_ns_per_msg);
    setup.push_back(rep.setup_s);
    rss.push_back(rep.peak_rss_mb);
    scaled_host.push_back(rep.wall_ns_per_msg * rep_scale);
    scaled_setup.push_back(rep.setup_s * rep_scale);
  }
  const double scale = kReferenceUnitNs / Median(reference);
  const double steal = ReadHostTicks().StealFrac(ticks0);
  r.Note(Fmt("host: %.1f wall ns/msg, set-up %.4f s, reference loop %.2f ms (median of %zu) "
             "-> scale %.4f; host steal %.1f%%",
             Median(host), Median(setup), Median(reference) / 1e6, reference.size(), scale,
             100 * steal));
  if (!opts.trace) {
    r.Add("msgs_per_s", ref.msgs_per_s, "1/s");
    r.Add("lat_p50_us", p50, "us");
    r.Add("host_ns_per_msg", Median(scaled_host), "ns");
    r.Add("peak_rss_mb", Median(rss), "MB");
    r.Add("setup_s", Median(scaled_setup), "s");
    return r;
  }

  // Per-layer metrics: medians over the traced repetitions.
  std::map<std::string, double> layer;
  for (const auto& [name, v] : traced.front().layer) {
    std::vector<double> vals;
    for (const SimRep& rep : traced) vals.push_back(rep.layer.at(name));
    layer[name] = Median(vals);
  }
  std::vector<double> traced_host;
  for (const SimRep& rep : traced) traced_host.push_back(rep.wall_ns_per_msg);
  layer["trace.overhead_host_ns_per_msg"] = Median(traced_host) - Median(host);
  layer["sim.wall_ns_per_msg"] = Median(host);
  layer["sim.reference_ms"] = Median(reference) / 1e6;
  layer["host.steal_frac"] = steal;
  // Simulated time: the traced repetitions were checked above to match
  // the untraced ones exactly.
  layer["trace.overhead_lat_p50_us"] = 0;
  layer["trace.spans"] = static_cast<double>(spans.size());
  layer["failover.gap_ms"] = ref.failover_gap_ms;
  layer["tail.lat_p99_us"] = p99;
  layer["tail.lat_p999_us"] = p999;
  for (const SimRep& rep : traced) {
    for (const auto& f : rep.stage_check.failures) r.Fail(f);
    if (rep.stage_sum_error > kBucketError) {
      r.Fail(Fmt("stage sum rule: stages add up to %.4f off the end-to-end mean "
                 "(bound %.4f)",
                 rep.stage_sum_error, kBucketError));
    }
  }
  r.Note(Fmt("stage sum rule: |sum of stage means - e2e mean| / e2e mean = %.5f "
             "(bound %.4f); %.4f of window deliveries fully stamped (bound >= %.2f)",
             traced.front().stage_sum_error, kBucketError,
             traced.front().layer.at("stage.complete_share"), kMinStampedShare));
  AddLayerMetrics(r, layer);
  if (!opts.spans_path.empty() && !spans.WriteJsonl(opts.spans_path)) {
    r.Note("spans: cannot write " + opts.spans_path);
  }
  return r;
}

}  // namespace mrpbench
