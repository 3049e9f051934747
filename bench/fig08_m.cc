// Figure 8: the effect of M (consensus instances a learner consumes per
// group per merge turn). While M instances of one ring are handled, the
// other ring's instances wait buffered, so average latency grows with M.
// Throughput and learner CPU are unaffected.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace mrp;         // NOLINT
using namespace mrp::bench;  // NOLINT
using multiring::DeploymentOptions;
using multiring::SimDeployment;

struct Point {
  double total_mbps;
  double latency_ms;
  double learner_cpu;
};

Point RunPoint(std::uint32_t m, double per_ring_rate, Duration warm,
               Duration measure) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.lambda_per_sec = 9000;
  SimDeployment d(opts);
  multiring::MergeLearner::Options mo;
  mo.m = m;
  auto* learner = d.AddMergeLearner({0, 1}, std::move(mo));
  for (int r = 0; r < 2; ++r) {
    AddOpenLoopClient(d, r, {{Seconds(0), per_ring_rate}}, 8 * 1024);
  }
  d.Start();
  d.RunFor(warm);
  for (std::size_t g = 0; g < 2; ++g) {
    learner->stats(g).delivered.TakeWindow();
    learner->stats(g).latency.Reset();
  }
  auto* lnode = d.learner_node(0);
  lnode->TakeCpuUtilisation();
  d.RunFor(measure);

  Point p{0, 0, 0};
  Histogram lat;
  for (std::size_t g = 0; g < 2; ++g) {
    p.total_mbps += learner->stats(g).delivered.TakeWindow().Mbps(measure);
    lat.Merge(learner->stats(g).latency);
  }
  p.latency_ms = Summarize(lat).trimmed_mean_ms;
  p.learner_cpu = lnode->TakeCpuUtilisation();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const Duration warm = quick ? Seconds(1) : Seconds(2);
  const Duration measure = quick ? Seconds(2) : Seconds(4);
  const std::vector<double> rates =
      quick ? std::vector<double>{500, 4000}
            : std::vector<double>{250, 500, 1000, 2000, 3000, 4000, 5000, 6000};

  PrintHeader("Figure 8 - the effect of M",
              "2 rings, 1 learner in both. Larger M delays the other ring's\n"
              "buffered instances; learner CPU and max throughput unchanged.");
  std::printf("%-6s %14s %12s %12s\n", "M", "total(Mbps)", "latency(ms)",
              "learnerCPU%");
  for (std::uint32_t m : {1u, 10u, 100u}) {
    for (double rate : rates) {
      const auto p = RunPoint(m, rate, warm, measure);
      std::printf("%-6u %14.1f %12.2f %12.1f\n", m, p.total_mbps, p.latency_ms,
                  p.learner_cpu * 100);
    }
    std::printf("\n");
  }
  std::printf("Expected shape: average latency ordered M=100 > M=10 > M=1 at\n"
              "equal load; throughput and learner CPU curves overlap.\n");
  return 0;
}
