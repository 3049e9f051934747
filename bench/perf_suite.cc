// Pinned-seed performance suite: a fixed matrix of deterministic
// scenarios (codec encode/decode, raw scheduler churn, single-ring and
// multi-ring simulated deployments) measured against the wall clock and
// emitted as machine-readable JSON (BENCH_core.json at the repo root is
// the committed baseline). tools/perf/compare.py diffs a candidate run
// against the baseline and fails CI on regressions; see docs/PERF.md
// for the schema and the gate policy.
//
// The workloads are deterministic (fixed seeds, closed-loop clients) so
// run-to-run variance comes only from the machine, not the work.
// Latency percentiles are over per-op times measured in chunks: each
// chunk is timed once and contributes chunk/ops as one sample, which
// keeps timer overhead out of the measured path.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "net/codec.h"
#include "paxos/value.h"
#include "ringpaxos/messages.h"
#include "session/lease.h"
#include "sim/scheduler.h"
#include "smr/client.h"
#include "smr/replica.h"

namespace {

using namespace mrp;         // NOLINT
using namespace mrp::bench;  // NOLINT

// The one wall-clock read in the suite. Sim benches elsewhere run on
// deterministic sim time; a perf gate has to measure real elapsed time.
std::uint64_t WallNowNs() {
  const auto now =
      // mrp-lint: allow(wall-clock) -- perf harness measures real elapsed time
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          now.time_since_epoch())
          .count());
}

// Defeats dead-code elimination of measured work.
volatile std::uint64_t g_sink = 0;

struct ScenarioResult {
  std::string name;
  std::string unit;  // "msgs/s", "bytes/s" or "events/s"
  double rate = 0;
  double p50_ns = 0;  // per-op wall time
  double p99_ns = 0;
  std::uint64_t ops = 0;
};

ScenarioResult Finish(std::string name, std::string unit, std::uint64_t ops,
                      double units_done, std::uint64_t wall_ns,
                      const Histogram& per_op) {
  ScenarioResult r;
  r.name = std::move(name);
  r.unit = std::move(unit);
  r.ops = ops;
  r.rate = wall_ns > 0 ? units_done * 1e9 / static_cast<double>(wall_ns) : 0;
  const LatencySummary ls = Summarize(per_op);
  r.p50_ns = ls.p50_ns;
  r.p99_ns = ls.p99_ns;
  return r;
}

paxos::ClientMsg MakeMsg(std::size_t payload) {
  paxos::ClientMsg m;
  m.group = 1;
  m.proposer = 2;
  m.seq = 3;
  m.payload.assign(payload, 0x5a);
  m.payload_size = static_cast<std::uint32_t>(payload);
  return m;
}

ringpaxos::P2A MakeP2A(std::size_t payload) {
  return ringpaxos::P2A{1, 2, 1000, 42,
                        paxos::Value::Batch({MakeMsg(payload)}),
                        {{998, 40}, {999, 41}},
                        {0, 1}};
}

// ---- codec scenarios: bytes/s over an 8 kB-payload P2A ----

ScenarioResult CodecEncode(bool quick) {
  const auto msg = MakeP2A(8 * 1024);
  const std::size_t frame_size = net::EncodeMessage(msg).size();
  const int chunks = quick ? 40 : 400;
  const int per_chunk = 64;
  Histogram per_op;
  std::uint64_t ops = 0;
  const std::uint64_t t0 = WallNowNs();
  for (int c = 0; c < chunks; ++c) {
    const std::uint64_t c0 = WallNowNs();
    for (int i = 0; i < per_chunk; ++i) {
      Bytes frame = net::EncodeMessage(msg);
      g_sink = g_sink + frame.size();
    }
    const std::uint64_t c1 = WallNowNs();
    per_op.RecordValue((c1 - c0) / per_chunk);
    ops += per_chunk;
  }
  const std::uint64_t wall = WallNowNs() - t0;
  return Finish("codec_encode_p2a_8k", "bytes/s", ops,
                static_cast<double>(ops) * static_cast<double>(frame_size),
                wall, per_op);
}

// `view` = false decodes with the copying span overload, true with the
// zero-copy shared-frame overload. Both scenarios are committed to the
// baseline so the JSON itself documents the zero-copy win.
ScenarioResult CodecDecode(bool quick, bool view) {
  const auto shared = std::make_shared<const Bytes>(
      net::EncodeMessage(MakeP2A(8 * 1024)));
  const Bytes& frame = *shared;
  const int chunks = quick ? 40 : 400;
  const int per_chunk = 64;
  Histogram per_op;
  std::uint64_t ops = 0;
  const std::uint64_t t0 = WallNowNs();
  for (int c = 0; c < chunks; ++c) {
    const std::uint64_t c0 = WallNowNs();
    for (int i = 0; i < per_chunk; ++i) {
      MessagePtr msg = view ? net::DecodeMessage(shared)
                            : net::DecodeMessage(std::span<const std::uint8_t>(frame));
      g_sink = g_sink + (msg != nullptr ? 1 : 0);
    }
    const std::uint64_t c1 = WallNowNs();
    per_op.RecordValue((c1 - c0) / per_chunk);
    ops += per_chunk;
  }
  const std::uint64_t wall = WallNowNs() - t0;
  return Finish(view ? "codec_decode_p2a_8k_view" : "codec_decode_p2a_8k_copy",
                "bytes/s", ops,
                static_cast<double>(ops) * static_cast<double>(frame.size()),
                wall, per_op);
}

// ---- raw scheduler churn: events/s ----

ScenarioResult SchedulerEvents(bool quick) {
  sim::Scheduler sched;
  std::function<void()> tick = [&] { sched.After(Micros(1), tick); };
  sched.After(Micros(1), tick);
  const int chunks = quick ? 50 : 400;
  const int per_chunk = 4096;
  Histogram per_op;
  std::uint64_t ops = 0;
  const std::uint64_t t0 = WallNowNs();
  for (int c = 0; c < chunks; ++c) {
    const std::uint64_t c0 = WallNowNs();
    for (int i = 0; i < per_chunk; ++i) sched.RunOne();
    const std::uint64_t c1 = WallNowNs();
    per_op.RecordValue((c1 - c0) / per_chunk);
    ops += per_chunk;
  }
  const std::uint64_t wall = WallNowNs() - t0;
  return Finish("sim_scheduler_events", "events/s", ops,
                static_cast<double>(ops), wall, per_op);
}

// ---- deployment scenarios: delivered msgs/s of simulated clusters ----
// Exercises the whole stack the optimizations target: pooled packet
// records in SimNetwork, protocol execution, merge delivery.

ScenarioResult Deployment(const char* name, int n_rings, bool quick) {
  multiring::DeploymentOptions opts;
  opts.n_rings = n_rings;
  opts.lambda_per_sec = 20000;
  opts.delta = Millis(1);
  multiring::SimDeployment d(opts);
  std::vector<int> rings;
  for (int r = 0; r < n_rings; ++r) rings.push_back(r);
  auto* learner = d.AddMergeLearner(rings);
  for (int r = 0; r < n_rings; ++r) {
    AddClosedLoopClients(d, r, /*clients=*/2, /*window=*/8, /*payload=*/8192);
  }
  d.Start();
  // Warmup until the instance pipeline and batching reach steady state;
  // short quick runs are biased slow without it.
  d.RunFor(Seconds(1));
  const int chunks = quick ? 10 : 60;
  Histogram per_op;
  std::uint64_t ops = 0;
  std::uint64_t last = learner->total_delivered();
  const std::uint64_t t0 = WallNowNs();
  for (int c = 0; c < chunks; ++c) {
    const std::uint64_t c0 = WallNowNs();
    d.RunFor(Millis(100));
    const std::uint64_t c1 = WallNowNs();
    const std::uint64_t now = learner->total_delivered();
    const std::uint64_t delivered = now - last;
    last = now;
    if (delivered > 0) per_op.RecordValue((c1 - c0) / delivered);
    ops += delivered;
  }
  const std::uint64_t wall = WallNowNs() - t0;
  return Finish(name, "msgs/s", ops, static_cast<double>(ops), wall, per_op);
}

// ---- session scenario: lease-local reads/s of the control plane ----
// Pins the session subsystem (SessionRead round-trips, SessionTable
// bookkeeping, lease renewal chain) into the committed baseline so
// tools/perf/compare.py catches both rate regressions and unit/schema
// drift in the session path (docs/SESSIONS.md).

ScenarioResult SessionLocalReads(bool quick) {
  multiring::DeploymentOptions opts;
  opts.n_rings = 1;
  opts.lambda_per_sec = 8000;
  opts.batch_timeout = Millis(1);
  multiring::SimDeployment d(opts);
  std::vector<sim::SimNode*> replica_nodes;
  for (int r = 0; r < 2; ++r) {
    d.AddLearnerNode(
        {0}, [&](sim::SimNode& node,
                 std::vector<ringpaxos::LearnerOptions> groups) {
          replica_nodes.push_back(&node);
          smr::ReplicaConfig rc;
          rc.partition = 0;
          rc.partition_ring = groups[0];
          rc.respond = (r == 0);
          rc.sessions = true;
          rc.serve_local_reads = (r == 1);
          return std::make_unique<smr::Replica>(rc);
        });
  }
  d.AddLearnerNode(
      {0}, [&](sim::SimNode&, std::vector<ringpaxos::LearnerOptions>) {
        session::LeaseGrantorConfig lc;
        lc.ring = d.ring(0).ring;
        lc.group = d.ring(0).group;
        lc.holder = replica_nodes[1]->self();
        return std::make_unique<session::LeaseGrantor>(lc);
      });
  AddOpenLoopClient(d, 0, {{TimePoint(0), 1000}}, /*payload=*/512);
  smr::KvClient* client = nullptr;
  {
    smr::KvClientConfig sc;
    sc.session_id = 1;
    sc.rings = {d.ring(0)};
    sc.read_replica = replica_nodes[1]->self();
    sc.window = 8;
    sc.query_ratio = 1.0;
    auto cl = std::make_unique<smr::KvClient>(sc);
    client = cl.get();
    d.AddClient(std::move(cl), {0});
  }
  d.Start();
  d.RunFor(Seconds(1));  // session open + first lease grant + warmup
  const int chunks = quick ? 10 : 60;
  Histogram per_op;
  std::uint64_t ops = 0;
  std::uint64_t last = client->local_reads();
  const std::uint64_t t0 = WallNowNs();
  for (int c = 0; c < chunks; ++c) {
    const std::uint64_t c0 = WallNowNs();
    d.RunFor(Millis(100));
    const std::uint64_t c1 = WallNowNs();
    const std::uint64_t now = client->local_reads();
    const std::uint64_t served = now - last;
    last = now;
    if (served > 0) per_op.RecordValue((c1 - c0) / served);
    ops += served;
  }
  const std::uint64_t wall = WallNowNs() - t0;
  return Finish("session_local_reads", "reads/s", ops,
                static_cast<double>(ops), wall, per_op);
}

void WriteJson(const char* path, const char* mode,
               const std::vector<ScenarioResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_suite: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"mrp-bench-core/v1\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n  \"scenarios\": {\n", mode);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    \"%s\": {\"unit\": \"%s\", \"rate\": %.1f, "
                 "\"p50_ns\": %.0f, \"p99_ns\": %.0f, \"ops\": %" PRIu64 "}%s\n",
                 r.name.c_str(), r.unit.c_str(), r.rate, r.p50_ns, r.p99_ns,
                 r.ops, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const char* out = FlagValue(argc, argv, "--out");
  if (out == nullptr) out = "BENCH_core.json";

  PrintHeader("Core performance suite",
              quick ? "quick mode (CI smoke): shorter runs, noisier"
                    : "full mode: baseline-quality runs");

  std::vector<ScenarioResult> results;
  results.push_back(CodecEncode(quick));
  results.push_back(CodecDecode(quick, /*view=*/false));
  results.push_back(CodecDecode(quick, /*view=*/true));
  results.push_back(SchedulerEvents(quick));
  results.push_back(Deployment("ring_single", 1, quick));
  results.push_back(Deployment("multiring_merge", 2, quick));
  results.push_back(SessionLocalReads(quick));

  std::printf("%-26s %14s %10s %12s %12s %10s\n", "scenario", "rate", "unit",
              "p50(ns)", "p99(ns)", "ops");
  for (const auto& r : results) {
    std::printf("%-26s %14.0f %10s %12.0f %12.0f %10" PRIu64 "\n",
                r.name.c_str(), r.rate, r.unit.c_str(), r.p50_ns, r.p99_ns,
                r.ops);
  }

  WriteJson(out, quick ? "quick" : "full", results);
  std::printf("\njson -> %s\n", out);
  return 0;
}
