// Figure 5: scalability with the number of partitions when every
// learner subscribes to exactly ONE group. Four panels in the paper
// (throughput in Gbps, throughput in msg/s, latency, CPU of the most
// loaded node), five systems:
//
//  * RAM  M-RP : In-memory Multi-Ring Paxos, P rings x 2 acceptors —
//                scales linearly, >5 Gbps at 8 rings;
//  * DISK M-RP : Recoverable Multi-Ring Paxos — linear, ~3 Gbps at 8;
//  * Ring Paxos: one ring ordering all P groups — flat (~0.7 Gbps);
//  * Spread    : P Totem daemons / P groups, 16 kB messages — flat;
//  * LCR       : ring of 2..16 nodes, 32 kB messages — flat near link
//                speed, no group abstraction.
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/lcr.h"
#include "baselines/totem.h"
#include "bench/bench_common.h"

namespace {

using namespace mrp;         // NOLINT
using namespace mrp::bench;  // NOLINT
using multiring::DeploymentOptions;
using multiring::SimDeployment;

struct Row {
  const char* system;
  int x;  // partitions / daemons / nodes
  Measurement m;
};

void Print(const Row& r) {
  std::printf("%-12s %6d %10.2f %10.0f %12.2f %10.1f\n", r.system, r.x,
              r.m.mbps / 1000.0, r.m.msg_per_s, r.m.latency_ms, r.m.max_cpu * 100);
}

// ---- Multi-Ring Paxos, one single-group learner per ring ----
// When `obs` is non-null this run additionally dumps its metrics
// snapshot (the registry dies with the deployment, so dump here).
Measurement RunMultiRing(int partitions, bool disk, int clients_per_ring,
                         Duration warm, Duration measure,
                         const Observability* obs = nullptr) {
  DeploymentOptions opts;
  opts.n_rings = partitions;
  opts.disk = disk;
  opts.lambda_per_sec = 9000;
  opts.delta = Millis(1);
  SimDeployment d(opts);
  std::vector<multiring::MergeLearner*> learners;
  for (int r = 0; r < partitions; ++r) {
    learners.push_back(AddAckingLearner(d, {r}));
    AddClosedLoopClients(d, r, clients_per_ring, 2, 8 * 1024);
  }
  d.Start();
  d.RunFor(warm);
  for (auto* l : learners) {
    l->stats(0).delivered.TakeWindow();
    l->stats(0).latency.Reset();
  }
  for (int r = 0; r < partitions; ++r) d.coordinator_node(r)->TakeCpuUtilisation();
  d.RunFor(measure);

  Measurement m;
  Histogram lat;
  for (auto* l : learners) {
    const auto w = l->stats(0).delivered.TakeWindow();
    m.mbps += w.Mbps(measure);
    m.msg_per_s += w.MsgPerSec(measure);
    lat.Merge(l->stats(0).latency);
  }
  m.latency_ms = Summarize(lat).trimmed_mean_ms;
  for (int r = 0; r < partitions; ++r) {
    m.max_cpu = std::max(m.max_cpu, d.coordinator_node(r)->TakeCpuUtilisation());
  }
  if (obs != nullptr) DumpMetrics(*obs, d);
  return m;
}

// ---- Single Ring Paxos ordering all P groups (as in Figure 2) ----
Measurement RunSingleRing(int /*partitions*/, Duration warm, Duration measure) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);
  auto* learner = AddAckingLearner(d, {0});
  AddClosedLoopClients(d, 0, 48, 2, 8 * 1024);
  d.Start();
  d.RunFor(warm);
  learner->stats(0).delivered.TakeWindow();
  learner->stats(0).latency.Reset();
  d.coordinator_node(0)->TakeCpuUtilisation();
  d.RunFor(measure);
  Measurement m;
  const auto w = learner->stats(0).delivered.TakeWindow();
  m.mbps = w.Mbps(measure);
  m.msg_per_s = w.MsgPerSec(measure);
  m.latency_ms = Summarize(learner->stats(0).latency).trimmed_mean_ms;
  m.max_cpu = d.coordinator_node(0)->TakeCpuUtilisation();
  return m;
}

// ---- Spread-like Totem daemons, 16 kB messages ----
Measurement RunSpread(int daemons, Duration warm, Duration measure) {
  sim::NetConfig net;
  // Userspace daemon overhead: higher per-message and per-byte CPU cost
  // than the kernel-path protocols (see DESIGN.md substitutions).
  net.default_spec.cpu_fixed_recv = Micros(25);
  net.default_spec.cpu_fixed_send = Micros(25);
  net.default_spec.cpu_per_byte_recv_ns = 7.5;
  net.default_spec.cpu_per_byte_send_ns = 7.5;
  sim::SimNetwork simnet(net);

  baselines::TotemConfig tc;
  tc.data_channel = 100;
  tc.max_burst = 16;
  std::vector<sim::SimNode*> daemon_nodes;
  for (int i = 0; i < daemons; ++i) {
    auto& node = simnet.AddNode();
    tc.daemons.push_back(node.self());
    daemon_nodes.push_back(&node);
    simnet.Subscribe(node.self(), tc.data_channel);
  }
  std::vector<baselines::TotemClient*> clients;
  std::vector<sim::SimNode*> client_nodes;
  for (int i = 0; i < daemons; ++i) {
    for (int c = 0; c < 4; ++c) {
      sim::NodeSpec spec;  // clients use the default cost model
      spec.infinite_cpu = true;
      auto& cnode = simnet.AddNode(spec);
      baselines::TotemClient::Config cc;
      cc.daemon = tc.daemons[i];
      cc.group = static_cast<GroupId>(i);
      cc.payload_size = 16 * 1024;
      cc.window = 4;
      auto client = std::make_unique<baselines::TotemClient>(cc);
      clients.push_back(client.get());
      cnode.BindProtocol(std::move(client));
      client_nodes.push_back(&cnode);
    }
  }
  for (int i = 0; i < daemons; ++i) {
    std::vector<baselines::TotemDaemon::ClientSub> subs;
    for (int c = 0; c < 4; ++c) {
      subs.push_back({client_nodes[static_cast<std::size_t>(i * 4 + c)]->self(),
                      {static_cast<GroupId>(i)}});
    }
    daemon_nodes[i]->BindProtocol(std::make_unique<baselines::TotemDaemon>(tc, subs));
  }
  simnet.StartAll();
  simnet.RunFor(warm);
  for (auto* c : clients) {
    c->delivered().TakeWindow();
    c->latency().Reset();
  }
  for (auto* dn : daemon_nodes) dn->TakeCpuUtilisation();
  simnet.RunFor(measure);

  Measurement m;
  Histogram lat;
  for (auto* c : clients) {
    const auto w = c->delivered().TakeWindow();
    m.mbps += w.Mbps(measure);
    m.msg_per_s += w.MsgPerSec(measure);
    lat.Merge(c->latency());
  }
  m.latency_ms = Summarize(lat).trimmed_mean_ms;
  for (auto* dn : daemon_nodes) {
    m.max_cpu = std::max(m.max_cpu, dn->TakeCpuUtilisation());
  }
  return m;
}

// ---- LCR ring of n nodes, 32 kB messages ----
Measurement RunLcr(int nodes, Duration warm, Duration measure) {
  sim::SimNetwork simnet;
  baselines::LcrConfig lc;
  lc.window = 16;
  lc.payload_size = 32 * 1024;
  std::vector<sim::SimNode*> ring_nodes;
  for (int i = 0; i < nodes; ++i) {
    auto& node = simnet.AddNode();
    lc.ring.push_back(node.self());
    ring_nodes.push_back(&node);
  }
  std::vector<baselines::LcrNode*> protos;
  for (int i = 0; i < nodes; ++i) {
    auto proto = std::make_unique<baselines::LcrNode>(lc);
    protos.push_back(proto.get());
    ring_nodes[i]->BindProtocol(std::move(proto));
  }
  simnet.StartAll();
  simnet.RunFor(warm);
  for (auto* p : protos) {
    p->delivered().TakeWindow();
    p->latency().Reset();
  }
  for (auto* n : ring_nodes) n->TakeCpuUtilisation();
  simnet.RunFor(measure);

  // Aggregate = what ONE node delivers (every node delivers everything).
  Measurement m;
  const auto w = protos[0]->delivered().TakeWindow();
  m.mbps = w.Mbps(measure);
  m.msg_per_s = w.MsgPerSec(measure);
  m.latency_ms = Summarize(protos[0]->latency()).trimmed_mean_ms;
  for (auto* n : ring_nodes) m.max_cpu = std::max(m.max_cpu, n->TakeCpuUtilisation());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const Observability obs = SetupObservability(argc, argv);
  const Duration warm = quick ? Seconds(1) : Seconds(2);
  const Duration measure = quick ? Seconds(2) : Seconds(4);
  const std::vector<int> parts = quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> lcr_nodes = quick ? std::vector<int>{2, 8} : std::vector<int>{2, 4, 8, 16};

  PrintHeader("Figure 5 - scalability, each learner subscribes to ONE group",
              "Multi-Ring Paxos scales linearly with rings; Spread, single\n"
              "Ring Paxos and LCR are flat. (Gbps, msg/s, latency, max CPU.)");
  std::printf("%-12s %6s %10s %10s %12s %10s\n", "system", "x", "Gbps", "msg/s",
              "latency(ms)", "maxCPU%");

  for (int p : parts) {
    // The largest RAM run also serves the --trace/--metrics dump.
    const Observability* o = (p == parts.back()) ? &obs : nullptr;
    Print({"RAM M-RP", p, RunMultiRing(p, false, 48, warm, measure, o)});
  }
  std::printf("\n");
  for (int p : parts) Print({"DISK M-RP", p, RunMultiRing(p, true, 24, warm, measure)});
  std::printf("\n");
  for (int p : parts) Print({"Ring Paxos", p, RunSingleRing(p, warm, measure)});
  std::printf("\n");
  for (int p : parts) Print({"Spread", p, RunSpread(p, warm, measure)});
  std::printf("\n");
  for (int n : lcr_nodes) Print({"LCR", n, RunLcr(n, warm, measure)});

  std::printf("\nExpected shape: RAM M-RP ~0.7 Gbps x rings (>5 Gbps at 8); DISK\n"
              "M-RP ~0.4 Gbps x rings (~3 Gbps at 8); the other systems flat.\n");
  DumpTrace(obs);
  return 0;
}
