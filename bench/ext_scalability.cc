// Extension benchmark (beyond the paper's 8 rings): does the linear
// scaling of In-memory Multi-Ring Paxos continue at 12 and 16 rings?
// The paper's claim is that composition scales with an "unbounded"
// number of rings as long as no shared resource saturates; with
// one-group-per-learner subscriptions nothing is shared, so throughput
// should stay ~0.69 Gbps x rings.
//
// Also sweeps the skip_resync extension under a rate burst to quantify
// the standing-buffer difference (see docs/PROTOCOL.md §3).
#include <cstdio>
#include <vector>

#include "baselines/mencius.h"
#include "bench/bench_common.h"

namespace {

using namespace mrp;         // NOLINT
using namespace mrp::bench;  // NOLINT
using multiring::DeploymentOptions;
using multiring::SimDeployment;

void ScalingSweep(bool quick) {
  const Duration warm = quick ? Seconds(1) : Seconds(2);
  const Duration measure = quick ? Seconds(2) : Seconds(3);
  std::printf("\n[1] linear scaling continued (RAM M-RP, one learner/group)\n");
  std::printf("%-8s %10s %12s %14s\n", "rings", "Gbps", "Gbps/ring", "maxCoordCPU%");
  const std::vector<int> sweep = quick ? std::vector<int>{4, 12}
                                       : std::vector<int>{8, 12, 16};
  for (int rings : sweep) {
    DeploymentOptions opts;
    opts.n_rings = rings;
    opts.lambda_per_sec = 9000;
    SimDeployment d(opts);
    std::vector<multiring::MergeLearner*> learners;
    for (int r = 0; r < rings; ++r) {
      learners.push_back(AddAckingLearner(d, {r}));
      AddClosedLoopClients(d, r, 48, 2, 8 * 1024);
    }
    d.Start();
    d.RunFor(warm);
    for (auto* l : learners) l->stats(0).delivered.TakeWindow();
    for (int r = 0; r < rings; ++r) d.coordinator_node(r)->TakeCpuUtilisation();
    d.RunFor(measure);
    double gbps = 0;
    for (auto* l : learners) {
      gbps += l->stats(0).delivered.TakeWindow().Mbps(measure) / 1000;
    }
    double cpu = 0;
    for (int r = 0; r < rings; ++r) {
      cpu = std::max(cpu, d.coordinator_node(r)->TakeCpuUtilisation());
    }
    std::printf("%-8d %10.2f %12.3f %14.1f\n", rings, gbps, gbps / rings, cpu * 100);
  }
}

void ResyncSweep(bool quick) {
  std::printf("\n[2] skip_resync: standing buffer after a burst above lambda\n");
  std::printf("%-10s %18s %14s\n", "mode", "buffered(msgs)", "delivered");
  for (bool resync : {false, true}) {
    DeploymentOptions opts;
    opts.n_rings = 2;
    opts.lambda_per_sec = 3000;
    opts.skip_resync = resync;
    SimDeployment d(opts);
    auto* learner = d.AddMergeLearner({0, 1});
    AddOpenLoopClient(d, 0, {{Seconds(0), 1000.0}}, 8 * 1024);
    AddOpenLoopClient(d, 1,
                      {{Seconds(0), 1000.0}, {Seconds(2), 5000.0}, {Seconds(4), 1000.0}},
                      8 * 1024);
    d.Start();
    d.RunFor(quick ? Seconds(6) : Seconds(10));
    std::printf("%-10s %18zu %14llu\n", resync ? "resync" : "paper",
                learner->buffered_msgs(),
                static_cast<unsigned long long>(learner->total_delivered()));
  }
}

// Mencius orders ONE total sequence across all servers: a partitioned
// service on top of it (selective delivery, as in Figure 2) cannot
// scale with partitions, while Multi-Ring Paxos gives each partition
// its own ring. Mencius appears in the paper's related work as the
// closest skip-instance design.
void MenciusComparison(bool quick) {
  const Duration warm = quick ? Seconds(1) : Seconds(2);
  const Duration measure = quick ? Seconds(2) : Seconds(3);
  std::printf("\n[3] partitioned service: Mencius vs Multi-Ring Paxos\n");
  std::printf("%-12s %12s %14s\n", "system", "partitions", "total(Mbps)");
  for (int partitions : {1, 2, 4}) {
    // ---- Mencius: one server per partition, everyone orders all ----
    double mencius_mbps = 0;
    {
      sim::SimNetwork net;
      baselines::MenciusConfig mc;
      std::vector<sim::SimNode*> nodes;
      for (int i = 0; i < partitions; ++i) {
        auto& node = net.AddNode();
        mc.servers.push_back(node.self());
        nodes.push_back(&node);
        net.Subscribe(node.self(), mc.data_channel);
      }
      std::vector<baselines::MenciusServer*> servers;
      for (auto* node : nodes) {
        auto server = std::make_unique<baselines::MenciusServer>(mc);
        servers.push_back(server.get());
        node->BindProtocol(std::move(server));
      }
      // Open-loop clients per server, enough to saturate.
      std::vector<sim::SimNode*> clients;
      for (int i = 0; i < partitions; ++i) {
        for (int c = 0; c < 2; ++c) {
          sim::NodeSpec spec;
          spec.infinite_cpu = true;
          auto& cnode = net.AddNode(spec);
          clients.push_back(&cnode);
        }
      }
      net.StartAll();
      // Drive submissions: a fixed TOTAL offered load just under the
      // single-total-order capacity, split over the clients (open loop;
      // pushing far beyond capacity would only measure queue collapse).
      const double per_client_rate = 8000.0 / (2.0 * partitions);
      struct Driver final : Protocol {
        NodeId server;
        double rate = 1000;
        std::uint64_t seq = 0;
        void OnStart(Env& env) override { Arm(env); }
        void Arm(Env& env) {
          env.SetTimer(FromSeconds(env.rng().exponential(1.0 / rate)), [this, &env] {
            paxos::ClientMsg m;
            m.proposer = env.self();
            m.seq = ++seq;
            m.sent_at = env.now();
            m.payload_size = 8 * 1024;
            env.Send(server, MakeMessage<baselines::MenciusSubmit>(std::move(m)));
            Arm(env);
          });
        }
        void OnMessage(Env&, NodeId, const MessagePtr&) override {}
      };
      for (std::size_t c = 0; c < clients.size(); ++c) {
        auto driver = std::make_unique<Driver>();
        driver->server = mc.servers[c % mc.servers.size()];
        driver->rate = per_client_rate;
        clients[c]->BindProtocol(std::move(driver));
        clients[c]->Start();
      }
      net.RunFor(warm);
      servers[0]->delivered().TakeWindow();
      net.RunFor(measure);
      mencius_mbps = servers[0]->delivered().TakeWindow().Mbps(measure);
    }
    std::printf("%-12s %12d %14.1f\n", "Mencius", partitions, mencius_mbps);

    // ---- Multi-Ring Paxos, same partition count ----
    {
      DeploymentOptions opts;
      opts.n_rings = partitions;
      opts.lambda_per_sec = 9000;
      SimDeployment d(opts);
      std::vector<multiring::MergeLearner*> learners;
      for (int r = 0; r < partitions; ++r) {
        learners.push_back(AddAckingLearner(d, {r}));
        AddClosedLoopClients(d, r, 48, 2, 8 * 1024);
      }
      d.Start();
      d.RunFor(warm);
      for (auto* l : learners) l->stats(0).delivered.TakeWindow();
      d.RunFor(measure);
      double mbps = 0;
      for (auto* l : learners) {
        mbps += l->stats(0).delivered.TakeWindow().Mbps(measure);
      }
      std::printf("%-12s %12d %14.1f\n", "M-RP", partitions, mbps);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  PrintHeader("Extension - scaling beyond 8 rings; skip_resync ablation",
              "Linear composition should continue as long as nothing is\n"
              "shared; skip_resync repays burst excursions above lambda.");
  ScalingSweep(quick);
  ResyncSweep(quick);
  MenciusComparison(quick);
  std::printf("\nExpected: ~0.69 Gbps/ring through 16 rings; 'paper' mode\n"
              "keeps a standing buffer after the burst, 'resync' drains it;\n"
              "Mencius (one total order) stays flat while M-RP scales.\n");
  return 0;
}
