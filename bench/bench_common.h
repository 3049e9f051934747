// Shared infrastructure for the figure-reproduction benchmarks: aligned
// table printing, warmup/measure sweep runners, and stat collection.
// Each bench binary reproduces one figure of the paper and prints the
// same series the figure plots (see EXPERIMENTS.md for the mapping).
#pragma once

#include <cstdio>
#include <fstream>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"
#include "ringpaxos/learner.h"
#include "ringpaxos/proposer.h"

namespace mrp::bench {

// Learner of the given rings that acknowledges its deliveries (the
// proposers' flow control). On one ring it is a single-ring learner.
inline multiring::MergeLearner* AddAckingLearner(
    multiring::SimDeployment& d, const std::vector<int>& rings) {
  multiring::MergeLearner::Options mo;
  mo.send_delivery_acks = true;
  return d.AddMergeLearner(rings, std::move(mo));
}

inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return std::getenv("MRP_BENCH_QUICK") != nullptr;
}

// --csv <dir>: time-series benches additionally write plottable CSV
// files into <dir> (one file per sub-experiment).
inline const char* CsvDir(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) return argv[i + 1];
  }
  return nullptr;
}

inline const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

// Observability wiring shared by every bench binary (docs/OBSERVABILITY.md):
//   --trace <file>   (or MRP_TRACE=<file>)    enable the structured tracer;
//     <file> gets the JSONL stream, <file>.chrome.json the chrome://tracing
//     view of the same events.
//   --metrics <file> (or MRP_METRICS=<file>)  dump a metrics-registry
//     snapshot of the whole deployment (network + every node) as JSON.
// Traces are driven off sim time, so a given seed yields an identical file.
struct Observability {
  std::string trace_path;    // empty = tracing disabled
  std::string metrics_path;  // empty = no metrics dump
};

inline Observability SetupObservability(int argc, char** argv) {
  Observability obs;
  if (const char* p = FlagValue(argc, argv, "--trace")) {
    obs.trace_path = p;
  } else if (const char* e = std::getenv("MRP_TRACE")) {
    obs.trace_path = e;
  }
  if (const char* p = FlagValue(argc, argv, "--metrics")) {
    obs.metrics_path = p;
  } else if (const char* e = std::getenv("MRP_METRICS")) {
    obs.metrics_path = e;
  }
  if (!obs.trace_path.empty()) {
    Tracer::Instance().Clear();
    Tracer::Instance().Enable();
  }
  return obs;
}

// Flush the accumulated trace; call once, at the end of main.
inline void DumpTrace(const Observability& obs) {
  if (obs.trace_path.empty()) return;
  Tracer& tracer = Tracer::Instance();
  if (tracer.WriteJsonlFile(obs.trace_path)) {
    std::printf("trace: %zu events -> %s\n", tracer.size(),
                obs.trace_path.c_str());
  } else {
    std::fprintf(stderr, "trace: cannot write %s\n", obs.trace_path.c_str());
  }
  const std::string chrome = obs.trace_path + ".chrome.json";
  if (tracer.WriteChromeTraceFile(chrome)) {
    std::printf("trace: chrome://tracing view -> %s\n", chrome.c_str());
  }
}

// Dump a whole-deployment metrics snapshot; call while `d` is still
// alive (per-node registries die with their SimNodes).
inline void DumpMetrics(const Observability& obs,
                        multiring::SimDeployment& d) {
  if (obs.metrics_path.empty()) return;
  std::ofstream out(obs.metrics_path);
  if (out) {
    d.net().WriteMetricsJson(out);
    std::printf("metrics: snapshot -> %s\n", obs.metrics_path.c_str());
  } else {
    std::fprintf(stderr, "metrics: cannot write %s\n",
                 obs.metrics_path.c_str());
  }
}

inline void DumpObservability(const Observability& obs,
                              multiring::SimDeployment* d) {
  if (d != nullptr) DumpMetrics(obs, *d);
  DumpTrace(obs);
}

inline void PrintHeader(const std::string& title, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", title.c_str(), what.c_str());
  std::printf("================================================================\n");
}

// Latency percentiles of a Histogram of nanosecond samples. The single
// place where benches (and the perf suite) turn histograms into
// reported numbers, so the quantile set, the trim policy (5% highest
// discarded, as in the paper) and the ns->ms scaling stay consistent.
struct LatencySummary {
  std::uint64_t count = 0;
  double p10_ms = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double trimmed_mean_ms = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  double p999_ns = 0;
};

// Every quantile comes straight off the fixed log-scale buckets, so
// summarising 10^6+ open-loop samples is O(buckets) — no sorted copy of
// the raw samples exists anywhere. The price is the bucket width
// (~2^-4 relative, see stats.h), bounded by the error tests in
// tests/metrics_test.cc; p99.9 needs that tail resolution the most.
inline LatencySummary Summarize(const Histogram& h) {
  LatencySummary s;
  s.count = h.count();
  if (s.count == 0) return s;
  s.p50_ns = h.Quantile(0.50);
  s.p99_ns = h.Quantile(0.99);
  s.p999_ns = h.Quantile(0.999);
  s.p10_ms = h.Quantile(0.10) / 1e6;
  s.p50_ms = s.p50_ns / 1e6;
  s.p90_ms = h.Quantile(0.90) / 1e6;
  s.p99_ms = s.p99_ns / 1e6;
  s.p999_ms = s.p999_ns / 1e6;
  s.trimmed_mean_ms = h.TrimmedMean(0.05) / 1e6;
  return s;
}

// One throughput/latency measurement of a deployment.
struct Measurement {
  double mbps = 0;       // aggregated application goodput
  double msg_per_s = 0;
  double latency_ms = 0; // trimmed mean (5% highest discarded, as in the paper)
  double max_cpu = 0;    // most-loaded node, in [0,1]
};

// Attaches `clients` closed-loop proposers to ring `ring_idx`.
inline void AddClosedLoopClients(multiring::SimDeployment& d, int ring_idx,
                                 int clients, std::size_t window,
                                 std::uint32_t payload) {
  for (int i = 0; i < clients; ++i) {
    ringpaxos::ProposerConfig pc;
    pc.max_outstanding = window;
    pc.payload_size = payload;
    d.AddProposer(ring_idx, pc);
  }
}

// Attaches an open-loop Poisson proposer with a step schedule.
inline ringpaxos::Proposer* AddOpenLoopClient(
    multiring::SimDeployment& d, int ring_idx,
    std::vector<ringpaxos::ProposerConfig::RatePoint> schedule,
    std::uint32_t payload, std::size_t window = 0, double osc_amplitude = 0,
    Duration osc_period = Seconds(20)) {
  ringpaxos::ProposerConfig pc;
  pc.schedule = std::move(schedule);
  pc.payload_size = payload;
  pc.max_outstanding = window;
  pc.osc_amplitude = osc_amplitude;
  pc.osc_period = osc_period;
  return d.AddProposer(ring_idx, pc);
}

}  // namespace mrp::bench
