// Figure 1: latency vs throughput of a single Ring Paxos instance, in
// In-memory and Recoverable (disk) modes. The paper's result: In-memory
// Ring Paxos is CPU-bound at the coordinator (~700 Mbps, coordinator at
// ~98% CPU); Recoverable Ring Paxos is bound by the acceptors' disk
// bandwidth (~400 Mbps) while the coordinator sits near 60% CPU. Adding
// acceptors cannot raise either ceiling.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace mrp;                 // NOLINT
using namespace mrp::bench;          // NOLINT
using multiring::DeploymentOptions;
using multiring::SimDeployment;

Measurement RunPoint(bool disk, int clients, Duration warm, Duration measure) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;  // plain Ring Paxos
  opts.disk = disk;
  SimDeployment d(opts);
  auto* learner = AddAckingLearner(d, {0});
  AddClosedLoopClients(d, 0, clients, /*window=*/2, /*payload=*/8 * 1024);
  d.Start();

  d.RunFor(warm);
  learner->stats(0).delivered.TakeWindow();
  learner->stats(0).latency.Reset();
  d.coordinator_node(0)->TakeCpuUtilisation();
  d.acceptor_node(0, 1)->TakeCpuUtilisation();

  d.RunFor(measure);
  const auto w = learner->stats(0).delivered.TakeWindow();
  Measurement m;
  m.mbps = w.Mbps(measure);
  m.msg_per_s = w.MsgPerSec(measure);
  m.latency_ms = Summarize(learner->stats(0).latency).trimmed_mean_ms;
  m.max_cpu = std::max(d.coordinator_node(0)->TakeCpuUtilisation(),
                       d.acceptor_node(0, 1)->TakeCpuUtilisation());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const Duration warm = quick ? Seconds(1) : Seconds(2);
  const Duration measure = quick ? Seconds(2) : Seconds(4);
  const std::vector<int> sweep =
      quick ? std::vector<int>{1, 8, 48} : std::vector<int>{1, 2, 4, 8, 16, 32, 48, 64};

  PrintHeader("Figure 1 - In-memory vs Recoverable Ring Paxos (single ring)",
              "Latency vs per-ring delivery throughput; coordinator CPU shows\n"
              "the CPU-bound (in-memory) vs disk-bound (recoverable) regimes.");

  std::printf("%-12s %8s %12s %10s %12s %10s\n", "mode", "clients",
              "tput(Mbps)", "msg/s", "latency(ms)", "coordCPU%");
  for (bool disk : {false, true}) {
    for (int clients : sweep) {
      const auto m = RunPoint(disk, clients, warm, measure);
      std::printf("%-12s %8d %12.1f %10.0f %12.2f %10.1f\n",
                  disk ? "Recoverable" : "In-memory", clients, m.mbps, m.msg_per_s,
                  m.latency_ms, m.max_cpu * 100);
    }
    std::printf("\n");
  }
  std::printf("Expected shape: in-memory saturates ~700 Mbps at ~100%% coordinator\n"
              "CPU; recoverable saturates ~400 Mbps with coordinator near 60%%.\n");
  return 0;
}
