// The paper's Section II-C service: a key-value store partitioned over
// P partitions, each replicated with state-machine replication. One
// atomic-multicast group per partition plus g_all for range queries that
// span partitions. Single-partition operations scale with P because each
// partition's ring orders them independently.
//
// Build & run:  ./build/examples/kvstore [partitions]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "multiring/sim_deployment.h"
#include "smr/client.h"
#include "smr/replica.h"

using namespace mrp;  // NOLINT

int main(int argc, char** argv) {
  const int partitions = argc > 1 ? std::atoi(argv[1]) : 4;

  // P partition rings + one g_all ring.
  multiring::DeploymentOptions opts;
  opts.n_rings = partitions + 1;
  opts.lambda_per_sec = 9000;
  multiring::SimDeployment d(opts);

  smr::Partitioning part(static_cast<std::uint32_t>(partitions), 1'000'000);

  // Two replicas per partition; each subscribes to its partition group
  // and to g_all.
  std::vector<smr::Replica*> replicas;
  for (int p = 0; p < partitions; ++p) {
    for (int r = 0; r < 2; ++r) {
      replicas.push_back(d.AddLearnerNode(
          {p, partitions}, [&](sim::SimNode&,
                               std::vector<ringpaxos::LearnerOptions> groups) {
            smr::ReplicaConfig rc;
            rc.partition = static_cast<GroupId>(p);
            rc.range = part.RangeOf(rc.partition);
            rc.partition_ring = groups[0];
            rc.all_ring = groups[1];
            rc.respond = (r == 0);
            return std::make_unique<smr::Replica>(rc);
          }));
    }
  }

  // Four closed-loop clients issuing a mixed workload: 80% inserts, 10%
  // deletes, 10% queries (30% of which span partitions via g_all).
  std::vector<smr::KvClient*> clients;
  std::vector<int> all_rings;
  for (int r = 0; r < d.n_rings(); ++r) all_rings.push_back(r);
  Histogram latency;
  for (int c = 0; c < 4; ++c) {
    smr::KvClientConfig cc;
    cc.partitioning = part;
    for (int r : all_rings) cc.rings.push_back(d.ring(r));
    cc.window = 2;
    cc.on_latency = [&latency](Duration lat) { latency.Record(lat); };
    auto client = std::make_unique<smr::KvClient>(cc);
    clients.push_back(client.get());
    d.AddClient(std::move(client), all_rings);
  }

  std::printf("partitioned kv store: %d partitions x 2 replicas, 4 clients\n",
              partitions);
  d.Start();
  d.RunFor(Seconds(2));

  std::uint64_t completed = 0;
  for (auto* c : clients) completed += c->completed();
  std::printf("\ncompleted %llu operations in 2 simulated seconds "
              "(%.0f ops/s, mean latency %.2f ms)\n",
              static_cast<unsigned long long>(completed),
              static_cast<double>(completed) / 2,
              latency.TrimmedMean(0.05) / 1e6);

  for (int p = 0; p < partitions; ++p) {
    const auto* a = replicas[static_cast<std::size_t>(2 * p)];
    const auto* b = replicas[static_cast<std::size_t>(2 * p + 1)];
    std::printf("partition %d: %zu keys, replicas %s (applied %llu / %llu)\n", p,
                a->store().size(),
                a->store().Fingerprint() == b->store().Fingerprint()
                    ? "CONVERGED"
                    : "DIVERGED!",
                static_cast<unsigned long long>(a->applied()),
                static_cast<unsigned long long>(b->applied()));
  }
  return 0;
}
