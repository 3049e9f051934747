// Figure 2: a partitioned "dummy" service running over a SINGLE
// In-memory Ring Paxos instance that orders all messages and delivers
// selectively. All requests are single-partition and evenly spread. The
// paper's point: the overall service throughput does NOT grow with the
// number of partitions — the one ring is the bottleneck, so each
// partition simply gets a 1/P share.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace mrp;         // NOLINT
using namespace mrp::bench;  // NOLINT
using multiring::DeploymentOptions;
using multiring::SimDeployment;
using multiring::MergeLearner;

struct Result {
  double total_mbps = 0;
  double per_partition_mbps = 0;
  double latency_ms = 0;
};

Result RunPartitions(int partitions, Duration warm, Duration measure) {
  DeploymentOptions opts;
  opts.lambda_per_sec = 0;
  SimDeployment d(opts);  // ONE ring

  // One learner (replica) per partition; each subscribes to the ring's
  // data channel, receives everything, and discards foreign partitions
  // (dummy service: delivered messages of its own partition are simply
  // counted).
  struct PartitionLearner {
    MergeLearner* learner = nullptr;
    std::uint64_t my_bytes = 0;
    std::uint64_t my_msgs = 0;
  };
  std::vector<std::unique_ptr<PartitionLearner>> parts;
  for (int p = 0; p < partitions; ++p) {
    auto pl = std::make_unique<PartitionLearner>();
    auto* raw = pl.get();
    MergeLearner::Options lo;
    lo.send_delivery_acks = (p == 0);  // one acker is enough for flow control
    // Requests are evenly spread: proposer c belongs to partition
    // c % partitions. The learner discards foreign-partition messages
    // (they still consumed its bandwidth and CPU — the paper's point).
    lo.on_deliver = [raw, p, partitions](GroupId, const paxos::ClientMsg& m) {
      if (static_cast<int>(m.proposer) % partitions == p) {
        raw->my_bytes += m.payload_size;
        ++raw->my_msgs;
      }
    };
    raw->learner = d.AddMergeLearner({0}, std::move(lo));
    parts.push_back(std::move(pl));
  }

  // 48 closed-loop clients in total, evenly spread over partitions
  // (proposer c belongs to partition c % partitions).
  const int clients_total = 48;
  AddClosedLoopClients(d, 0, clients_total, /*window=*/2, /*payload=*/8 * 1024);

  d.Start();
  d.RunFor(warm);
  for (auto& pl : parts) {
    pl->my_bytes = 0;
    pl->my_msgs = 0;
    pl->learner->stats(0).latency.Reset();
  }
  d.RunFor(measure);

  Result r;
  std::uint64_t total_bytes = 0;
  for (auto& pl : parts) total_bytes += pl->my_bytes;
  r.total_mbps = static_cast<double>(total_bytes) * 8 / ToSeconds(measure) / 1e6;
  r.per_partition_mbps = r.total_mbps / partitions;
  r.latency_ms = Summarize(parts[0]->learner->stats(0).latency).trimmed_mean_ms;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const Duration warm = quick ? Seconds(1) : Seconds(2);
  const Duration measure = quick ? Seconds(2) : Seconds(4);

  PrintHeader("Figure 2 - partitioned dummy service over ONE Ring Paxos",
              "Overall service throughput vs number of partitions: flat,\n"
              "because the single ring orders everything.");

  std::printf("%-12s %14s %18s\n", "partitions", "overall(Mbps)", "per-partition(Mbps)");
  for (int p : {1, 2, 4, 8}) {
    const auto r = RunPartitions(p, warm, measure);
    std::printf("%-12d %14.1f %18.1f\n", p, r.total_mbps, r.per_partition_mbps);
  }
  std::printf("\nExpected shape: overall throughput approximately constant (~700\n"
              "Mbps); the per-partition share shrinks as 1/P.\n");
  return 0;
}
