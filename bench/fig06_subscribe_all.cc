// Figure 6: every learner subscribes to ALL groups. With one ring the
// bottleneck is the single Ring Paxos instance; as rings are added the
// aggregate saturates the learner's 1 GbE ingress link. In-memory needs
// 2 rings to reach the learner's capacity, recoverable needs 3 — the
// paper's demonstration that several "slow" broadcast protocols compose
// into one fast one.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace mrp;         // NOLINT
using namespace mrp::bench;  // NOLINT
using multiring::DeploymentOptions;
using multiring::SimDeployment;

Measurement RunPoint(int rings, bool disk, Duration warm, Duration measure) {
  DeploymentOptions opts;
  opts.n_rings = rings;
  opts.disk = disk;
  opts.lambda_per_sec = 9000;
  SimDeployment d(opts);

  std::vector<int> all;
  for (int r = 0; r < rings; ++r) all.push_back(r);
  multiring::MergeLearner::Options mo;
  mo.send_delivery_acks = true;
  auto* learner = d.AddMergeLearner(all, std::move(mo));
  // Enough closed-loop load per ring to drive each ring to its own
  // ceiling, so the learner's ingress link becomes the aggregate bound.
  for (int r = 0; r < rings; ++r) {
    AddClosedLoopClients(d, r, disk ? 64 : 96, 2, 8 * 1024);
  }
  d.Start();
  d.RunFor(warm);
  for (std::size_t g = 0; g < learner->group_count(); ++g) {
    learner->stats(g).delivered.TakeWindow();
    learner->stats(g).latency.Reset();
  }
  auto* lnode = d.learner_node(0);
  lnode->TakeCpuUtilisation();
  d.RunFor(measure);

  Measurement m;
  Histogram lat;
  for (std::size_t g = 0; g < learner->group_count(); ++g) {
    const auto w = learner->stats(g).delivered.TakeWindow();
    m.mbps += w.Mbps(measure);
    m.msg_per_s += w.MsgPerSec(measure);
    lat.Merge(learner->stats(g).latency);
  }
  m.latency_ms = Summarize(lat).trimmed_mean_ms;
  m.max_cpu = lnode->TakeCpuUtilisation();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const Duration warm = quick ? Seconds(1) : Seconds(2);
  const Duration measure = quick ? Seconds(2) : Seconds(4);
  const std::vector<int> rings = quick ? std::vector<int>{1, 2, 4}
                                       : std::vector<int>{1, 2, 4, 8};

  PrintHeader("Figure 6 - ONE learner subscribes to ALL groups",
              "Aggregate delivery throughput at the learner caps at its 1 GbE\n"
              "ingress; in-memory saturates it with 2 rings, recoverable with 3.");
  std::printf("%-12s %6s %12s %10s %12s %12s\n", "mode", "rings", "tput(Mbps)",
              "msg/s", "latency(ms)", "learnerCPU%");
  for (bool disk : {false, true}) {
    for (int r : rings) {
      const auto m = RunPoint(r, disk, warm, measure);
      std::printf("%-12s %6d %12.1f %10.0f %12.2f %12.1f\n",
                  disk ? "Recoverable" : "In-memory", r, m.mbps, m.msg_per_s,
                  m.latency_ms, m.max_cpu * 100);
    }
    std::printf("\n");
  }
  std::printf("Expected shape: rises with rings until ~0.9 Gbps (learner NIC),\n"
              "then flat; recoverable needs one more ring to reach the cap.\n");
  return 0;
}
