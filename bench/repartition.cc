// Live repartition bench (docs/RECONFIG.md): a holder-routed,
// session-stamped KV workload runs against two rings while a
// RepartitionCoordinator splits the upper half of the key space out of
// ring 0's group into ring 1's — seal in the source stream, state
// handoff over the chunked snapshot transfer, routing flip via
// RoutingUpdate — and the bench bins throughput and p99 latency into
// 100 ms buckets across the move. A baseline run on the identical
// topology without the split provides the steady-state reference.
//
// The exit code is oracle-enforced: the run fails if the
// ReconfigOracle flags a lost or doubly-applied session command, if the
// plan does not complete, or if throughput during the split drops below
// 50% of steady state.
//
//   repartition [--quick] [--csv dir] [--trace f] [--metrics f]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "check/oracles.h"
#include "check/reconfig_oracle.h"
#include "multiring/sim_deployment.h"
#include "reconfig/plan.h"
#include "reconfig/repartition.h"
#include "reconfig/ring_view.h"
#include "smr/client.h"
#include "smr/replica.h"

namespace mrp::bench {
namespace {

using check::OracleSuite;
using check::ReconfigOracle;
using multiring::DeploymentOptions;
using multiring::SimDeployment;

constexpr std::uint64_t kPlanId = 31;
constexpr std::uint64_t kSplitLo = 500000;
constexpr std::uint64_t kKeyMax = 999999;
constexpr Duration kBucket = Millis(100);

struct Timeline {
  std::vector<double> ops_per_s;  // one entry per 100 ms bucket
  // Bucket indices of the split window [start, done).
  std::size_t split_start = 0;
  std::size_t split_done = 0;
};

struct ScenarioResult {
  Timeline timeline;
  double steady_ops = 0;  // mean bucket throughput before the split
  double during_ops = 0;  // ... while the plan was in flight
  double after_ops = 0;   // ... once the plan completed
  LatencySummary steady_lat, during_lat, after_lat;
  std::uint64_t completed = 0;
  std::uint64_t redirects = 0;
  bool plan_done = false;
  bool oracle_ok = false;
  std::string oracle_report;
};

ScenarioResult RunScenario(bool live_split, Duration total, Duration split_at,
                           const Observability* obs) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.batch_timeout = Millis(1);
  auto d = std::make_unique<SimDeployment>(opts);
  const GroupId g0 = d->ring(0).group;
  const GroupId g1 = d->ring(1).group;

  OracleSuite suite(&d->net().metrics());
  ReconfigOracle oracle(&suite);
  reconfig::RingHolder holder;

  holder.Install(reconfig::RingConfiguration(
      1, {reconfig::RouteFor(d->ring(0))}, {{0, kKeyMax, g0}}));

  std::vector<sim::SimNode*> source_nodes;
  for (int r = 0; r < 2; ++r) {
    d->AddLearnerNode(
        {0}, [&](sim::SimNode& node,
                 std::vector<ringpaxos::LearnerOptions> groups) {
          smr::ReplicaConfig rc;
          rc.partition = g0;
          rc.partition_ring = groups[0];
          rc.respond = (r == 0);
          rc.sessions = true;
          const int ridx =
              oracle.RegisterReplica("source" + std::to_string(r), g0);
          rc.on_session_apply = [&oracle, ridx](std::uint64_t sid,
                                                std::uint64_t seq) {
            oracle.OnSessionApply(ridx, sid, seq);
          };
          source_nodes.push_back(&node);
          return std::make_unique<smr::Replica>(rc);
        });
  }

  sim::SimNode* target_node = nullptr;
  d->AddLearnerNode(
      {1}, [&](sim::SimNode& node,
               std::vector<ringpaxos::LearnerOptions> groups) {
        smr::ReplicaConfig rc;
        rc.partition = g1;
        rc.range = {kSplitLo, kKeyMax};
        rc.partition_ring = groups[0];
        rc.respond = true;
        rc.sessions = true;
        rc.handoff_plan = kPlanId;
        rc.bootstrap_peers = {source_nodes[0]->self(), source_nodes[1]->self()};
        const int ridx = oracle.RegisterReplica("target", g1);
        rc.on_session_apply = [&oracle, ridx](std::uint64_t sid,
                                              std::uint64_t seq) {
          oracle.OnSessionApply(ridx, sid, seq);
        };
        target_node = &node;
        return std::make_unique<smr::Replica>(rc);
      });

  // The workload under measurement: closed-loop, holder-routed,
  // session-stamped writes plus a small query mix. Latencies land in
  // whichever phase histogram is current when the request completes.
  Histogram steady_hist, during_hist, after_hist;
  Histogram* phase_hist = &steady_hist;
  smr::KvClient* client = nullptr;
  sim::SimNode* client_node = nullptr;
  {
    smr::KvClientConfig cc;
    cc.rings.push_back(d->ring(0));
    cc.window = 8;
    cc.holder = &holder;
    cc.session_id = 3;
    cc.on_complete = [&oracle](std::uint64_t sid, std::uint64_t seq) {
      oracle.OnClientComplete(sid, seq);
    };
    cc.on_latency = [&phase_hist](Duration lat) { phase_hist->Record(lat); };
    auto cl = std::make_unique<smr::KvClient>(cc);
    client = cl.get();
    client_node = &d->AddClient(std::move(cl), {0, 1});
  }

  reconfig::RepartitionCoordinator* repart = nullptr;
  if (live_split) {
    auto& node = d->net().AddNode();
    reconfig::RepartitionConfig pc;
    pc.plan = reconfig::ReconfigPlan::Split(kPlanId, g0, g1, kSplitLo,
                                            kKeyMax, d->ring(1).ring);
    pc.source_ring = d->ring(0);
    pc.next = reconfig::RingConfiguration(
        2, {reconfig::RouteFor(d->ring(0)), reconfig::RouteFor(d->ring(1))},
        {{0, kSplitLo - 1, g0}, {kSplitLo, kKeyMax, g1}});
    pc.target_replica = target_node->self();
    pc.notify = {client_node->self()};
    pc.start_delay = split_at;
    auto co = std::make_unique<reconfig::RepartitionCoordinator>(pc);
    repart = co.get();
    node.BindProtocol(std::move(co));
    d->net().Subscribe(node.self(), d->ring(0).control_channel);
  }

  d->Start();

  ScenarioResult res;
  Timeline& tl = res.timeline;
  std::uint64_t mark = 0;
  bool in_split = false;
  for (TimePoint t{0}; t < total; t += kBucket) {
    d->RunFor(kBucket);
    const std::uint64_t done = client->completed();
    tl.ops_per_s.push_back(static_cast<double>(done - mark) /
                           ToSeconds(kBucket));
    mark = done;
    if (live_split && !in_split && t + kBucket >= split_at) {
      in_split = true;
      tl.split_start = tl.ops_per_s.size();
      phase_hist = &during_hist;
    }
    if (in_split && repart->done() && tl.split_done == 0) {
      tl.split_done = tl.ops_per_s.size();
      phase_hist = &after_hist;
    }
  }
  if (live_split && tl.split_done == 0) tl.split_done = tl.ops_per_s.size();

  oracle.Finish();

  auto mean_of = [&tl](std::size_t lo, std::size_t hi) {
    if (hi <= lo) return 0.0;
    double sum = 0;
    for (std::size_t i = lo; i < hi; ++i) sum += tl.ops_per_s[i];
    return sum / static_cast<double>(hi - lo);
  };
  const std::size_t n = tl.ops_per_s.size();
  // Skip the first buckets: session opens and window ramp-up.
  const std::size_t warm = 2;
  if (live_split) {
    res.steady_ops = mean_of(warm, tl.split_start);
    res.during_ops = mean_of(tl.split_start, tl.split_done);
    res.after_ops = mean_of(tl.split_done, n);
  } else {
    res.steady_ops = mean_of(warm, n);
  }
  res.steady_lat = Summarize(steady_hist);
  res.during_lat = Summarize(during_hist);
  res.after_lat = Summarize(after_hist);
  res.completed = client->completed();
  res.redirects = client->redirects_followed();
  res.plan_done = repart == nullptr || repart->done();
  res.oracle_ok = suite.ok();
  res.oracle_report = suite.Report();
  if (obs != nullptr && live_split) DumpMetrics(*obs, *d);
  return res;
}

void WriteCsv(const char* dir, const ScenarioResult& split,
              const ScenarioResult& base) {
  const std::string path = std::string(dir) + "/repartition.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "t_s,split_ops_per_s,baseline_ops_per_s,phase\n");
  const std::size_t n = split.timeline.ops_per_s.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char* phase = i < split.timeline.split_start  ? "steady"
                        : i < split.timeline.split_done ? "split"
                                                        : "after";
    const double b = i < base.timeline.ops_per_s.size()
                         ? base.timeline.ops_per_s[i]
                         : 0;
    std::fprintf(f, "%.1f,%.0f,%.0f,%s\n",
                 static_cast<double>(i + 1) * 0.1,
                 split.timeline.ops_per_s[i], b, phase);
  }
  std::fclose(f);
  std::printf("csv: %s\n", path.c_str());
}

}  // namespace
}  // namespace mrp::bench

int main(int argc, char** argv) {
  using namespace mrp;          // NOLINT
  using namespace mrp::bench;   // NOLINT
  const bool quick = QuickMode(argc, argv);
  const Duration total = quick ? Seconds(3) : Seconds(10);
  const Duration split_at = quick ? Seconds(1) : Seconds(3);
  Observability obs = SetupObservability(argc, argv);

  PrintHeader("repartition: live split vs static baseline",
              "holder-routed session client; upper half of the key space "
              "moves to ring 1 mid-run");

  ScenarioResult base =
      RunScenario(/*live_split=*/false, total, split_at, nullptr);
  ScenarioResult split =
      RunScenario(/*live_split=*/true, total, split_at, &obs);

  std::printf("\n%-22s %10s %10s %10s\n", "phase", "ops/s", "p50 ms",
              "p99 ms");
  std::printf("%-22s %10.0f %10.3f %10.3f\n", "baseline (no split)",
              base.steady_ops, base.steady_lat.p50_ms, base.steady_lat.p99_ms);
  std::printf("%-22s %10.0f %10.3f %10.3f\n", "split: steady",
              split.steady_ops, split.steady_lat.p50_ms,
              split.steady_lat.p99_ms);
  std::printf("%-22s %10.0f %10.3f %10.3f\n", "split: during move",
              split.during_ops, split.during_lat.p50_ms,
              split.during_lat.p99_ms);
  std::printf("%-22s %10.0f %10.3f %10.3f\n", "split: after move",
              split.after_ops, split.after_lat.p50_ms, split.after_lat.p99_ms);
  std::printf("\nsplit window: %.1f s -> %.1f s; redirects followed: %llu; "
              "completions: %llu\n",
              static_cast<double>(split.timeline.split_start) * 0.1,
              static_cast<double>(split.timeline.split_done) * 0.1,
              static_cast<unsigned long long>(split.redirects),
              static_cast<unsigned long long>(split.completed));

  if (const char* dir = CsvDir(argc, argv)) WriteCsv(dir, split, base);

  bool ok = true;
  if (!split.plan_done) {
    std::printf("FAIL: repartition plan did not complete\n");
    ok = false;
  }
  if (!split.oracle_ok || !base.oracle_ok) {
    std::printf("ORACLE VIOLATION\n%s\n%s\n", split.oracle_report.c_str(),
                base.oracle_report.c_str());
    ok = false;
  }
  if (split.during_ops < 0.5 * split.steady_ops) {
    std::printf("FAIL: throughput during the split (%.0f ops/s) fell below "
                "50%% of steady state (%.0f ops/s)\n",
                split.during_ops, split.steady_ops);
    ok = false;
  }
  if (ok) {
    std::printf("OK: plan completed, oracles clean, during-split throughput "
                ">= 50%% of steady state\n");
  }
  DumpObservability(obs, nullptr);
  return ok ? 0 : 1;
}
