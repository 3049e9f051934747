// Lease-local vs through-ring reads (docs/SESSIONS.md). Two identical
// deployments carry the same background write lambda; a read-only
// session client either holds no lease (every read is ordered through
// the ring) or reads from the lease-holding replica. The bench reports
// read throughput and latency for both paths and checks the local path
// delivers at least 5x the through-ring read throughput while the
// session/lease oracles (src/check) hold.
//
//   session_reads [--quick] [--write-lambda N] [--trace f] [--metrics f]
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "check/oracles.h"
#include "check/session_oracle.h"
#include "multiring/sim_deployment.h"
#include "session/lease.h"
#include "smr/client.h"
#include "smr/replica.h"

namespace mrp::bench {
namespace {

using check::OracleSuite;
using check::SessionOracle;
using multiring::DeploymentOptions;
using multiring::SimDeployment;

struct ScenarioResult {
  double reads_per_s = 0;
  LatencySummary latency;
  std::uint64_t local_reads = 0;
  std::uint64_t fallback_reads = 0;
  std::uint64_t ring_reads = 0;
  bool oracle_ok = false;
  std::string oracle_report;
};

ScenarioResult RunScenario(bool lease_local, double write_lambda,
                           Duration warmup, Duration measure,
                           const Observability* obs) {
  DeploymentOptions opts;
  opts.n_rings = 1;
  opts.lambda_per_sec = 8000;
  opts.batch_timeout = Millis(1);
  auto d = std::make_unique<SimDeployment>(opts);
  OracleSuite oracle(&d->net().metrics());
  SessionOracle session_oracle(&oracle);

  std::vector<smr::Replica*> replicas;
  std::vector<sim::SimNode*> replica_nodes;
  for (int r = 0; r < 2; ++r) {
    replicas.push_back(d->AddLearnerNode(
        {0}, [&](sim::SimNode& node,
                 std::vector<ringpaxos::LearnerOptions> groups) {
          replica_nodes.push_back(&node);
          smr::ReplicaConfig rc;
          rc.partition = 0;
          rc.partition_ring = groups[0];
          rc.respond = (r == 0);
          rc.sessions = true;
          rc.serve_local_reads = (r == 1);
          const int idx =
              oracle.RegisterReplica("replica" + std::to_string(r), 0);
          rc.on_apply = [&oracle, idx](const smr::Command& cmd) {
            oracle.OnSmrApply(idx, cmd);
          };
          const int sidx =
              session_oracle.RegisterReplica("replica" + std::to_string(r));
          rc.on_session_apply = [&session_oracle, sidx](std::uint64_t sid,
                                                        std::uint64_t seq) {
            session_oracle.OnSessionApply(sidx, sid, seq);
          };
          if (r == 1) {
            rc.on_local_read = [&session_oracle, sidx](std::uint64_t epoch,
                                                       bool lease_valid,
                                                       InstanceId grant_point,
                                                       InstanceId frontier) {
              session_oracle.OnLocalRead(sidx, epoch, lease_valid, grant_point,
                                         frontier);
            };
          }
          return std::make_unique<smr::Replica>(rc);
        }));
  }
  d->AddLearnerNode(
      {0}, [&](sim::SimNode&, std::vector<ringpaxos::LearnerOptions>) {
        session::LeaseGrantorConfig lc;
        lc.ring = d->ring(0).ring;
        lc.group = d->ring(0).group;
        lc.holder = replica_nodes[1]->self();
        return std::make_unique<session::LeaseGrantor>(lc);
      });

  // Equal write lambda in both scenarios: an open-loop Poisson proposer.
  AddOpenLoopClient(*d, 0, {{TimePoint(0), write_lambda}}, /*payload=*/512);

  // The read-only session client under test.
  smr::KvClient* client = nullptr;
  Histogram read_latency;
  {
    smr::KvClientConfig sc;
    sc.session_id = 1;
    sc.rings = {d->ring(0)};
    sc.read_replica = lease_local ? replica_nodes[1]->self() : kNoNode;
    sc.window = 8;
    sc.query_ratio = 1.0;  // reads only; the Poisson proposer writes
    sc.on_latency = [&read_latency](Duration lat) { read_latency.Record(lat); };
    auto cl = std::make_unique<smr::KvClient>(sc);
    client = cl.get();
    d->AddClient(std::move(cl), {0});
  }

  d->Start();
  d->RunFor(warmup);
  const std::uint64_t completed_mark = client->completed();
  d->RunFor(measure);
  const std::uint64_t reads = client->completed() - completed_mark;

  oracle.Finish();

  ScenarioResult res;
  res.reads_per_s = static_cast<double>(reads) / ToSeconds(measure);
  res.latency = Summarize(read_latency);
  res.local_reads = client->local_reads();
  res.fallback_reads = client->fallback_reads();
  res.ring_reads = client->ring_reads();
  res.oracle_ok = oracle.ok();
  res.oracle_report = oracle.Report();
  if (obs != nullptr && lease_local) DumpMetrics(*obs, *d);
  return res;
}

}  // namespace
}  // namespace mrp::bench

int main(int argc, char** argv) {
  using namespace mrp;          // NOLINT
  using namespace mrp::bench;   // NOLINT
  const bool quick = QuickMode(argc, argv);
  double write_lambda = 1000;
  if (const char* v = FlagValue(argc, argv, "--write-lambda")) {
    write_lambda = std::atof(v);
  }
  const Duration warmup = quick ? Millis(500) : Seconds(1);
  const Duration measure = quick ? Seconds(2) : Seconds(8);
  Observability obs = SetupObservability(argc, argv);

  PrintHeader("session_reads: lease-local vs through-ring reads",
              "read-only session client, equal background write lambda = " +
                  std::to_string(static_cast<int>(write_lambda)) + "/s");

  ScenarioResult ring =
      RunScenario(/*lease_local=*/false, write_lambda, warmup, measure, &obs);
  ScenarioResult local =
      RunScenario(/*lease_local=*/true, write_lambda, warmup, measure, &obs);

  std::printf("\n%-14s %12s %10s %10s %10s\n", "path", "reads/s", "p50 ms",
              "p99 ms", "served");
  std::printf("%-14s %12.0f %10.3f %10.3f %10llu\n", "through-ring",
              ring.reads_per_s, ring.latency.p50_ms, ring.latency.p99_ms,
              static_cast<unsigned long long>(ring.ring_reads));
  std::printf("%-14s %12.0f %10.3f %10.3f %10llu\n", "lease-local",
              local.reads_per_s, local.latency.p50_ms, local.latency.p99_ms,
              static_cast<unsigned long long>(local.local_reads));

  const double ratio =
      ring.reads_per_s > 0 ? local.reads_per_s / ring.reads_per_s : 0;
  std::printf("\nspeedup: %.1fx (local fallbacks: %llu)\n", ratio,
              static_cast<unsigned long long>(local.fallback_reads));

  bool ok = true;
  if (!ring.oracle_ok || !local.oracle_ok) {
    std::printf("ORACLE VIOLATION\n%s\n%s\n", ring.oracle_report.c_str(),
                local.oracle_report.c_str());
    ok = false;
  }
  if (ratio < 5.0) {
    std::printf("FAIL: lease-local reads below the 5x bar\n");
    ok = false;
  }
  if (local.local_reads == 0) {
    std::printf("FAIL: no lease-local reads were served\n");
    ok = false;
  }
  if (ok) std::printf("OK: >= 5x, oracles clean\n");
  DumpObservability(obs, nullptr);
  return ok ? 0 : 1;
}
