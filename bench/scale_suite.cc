// Production-scale benchmark suite: the simulator scale-out (timer
// wheel + pooled events) and the workload engine (src/workload) under
// load, emitted as machine-readable JSON (BENCH_scale.json at the repo
// root is the committed baseline; schema mrp-bench-scale/v1). The gate
// policy is the same as BENCH_core.json: tools/perf/compare.py diffs a
// candidate against the baseline and fails CI on rate regressions.
//
// Scenarios:
//   sched_churn_wheel    raw Scheduler churn with thousands of live
//                        timers + cancel/re-arm storms (sim-events/s)
//   workload_mix         8 rings x the multi-tenant DefaultMix driven
//                        end to end (delivered msgs/s; delivery-latency
//                        p50/p99/p99.9 in sim-time ns)
//   scale_100rings       100 rings x 1000 open-loop sessions per ring
//                        (10^5 sessions on one driver), sim-events/s
//
// All deployment scenarios run on the deterministic simulator: the work
// is seeded and byte-reproducible, only the wall-clock rate depends on
// the machine. `--sweep` runs the merge-learner saturation sweep
// (groups x lambda x rate-skew) recorded in EXPERIMENTS.md instead of
// the committed scenarios.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rand.h"
#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"
#include "sim/scheduler.h"
#include "workload/driver.h"
#include "workload/tenant.h"

namespace {

using namespace mrp;         // NOLINT
using namespace mrp::bench;  // NOLINT

// The one wall-clock read in the suite (same policy as perf_suite.cc:
// sim time is deterministic, a perf gate has to measure elapsed time).
std::uint64_t WallNowNs() {
  const auto now =
      // mrp-lint: allow(wall-clock) -- perf harness measures real elapsed time
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          now.time_since_epoch())
          .count());
}

struct ScenarioResult {
  std::string name;
  std::string unit;  // "events/s" or "msgs/s"
  double rate = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  double p999_ns = 0;
  std::uint64_t ops = 0;
};

ScenarioResult Finish(std::string name, std::string unit, std::uint64_t ops,
                      double units_done, std::uint64_t wall_ns,
                      const Histogram& lat) {
  ScenarioResult r;
  r.name = std::move(name);
  r.unit = std::move(unit);
  r.ops = ops;
  r.rate = wall_ns > 0 ? units_done * 1e9 / static_cast<double>(wall_ns) : 0;
  const LatencySummary ls = Summarize(lat);
  r.p50_ns = ls.p50_ns;
  r.p99_ns = ls.p99_ns;
  r.p999_ns = ls.p999_ns;
  return r;
}

// ---- scheduler churn: the timer-wheel acceptance workload ----
// A population of self-rescheduling timers whose delays span all wheel
// levels (1us .. 300ms), plus a periodic cancel/re-arm storm — the
// shape a 10^5-session driver plus per-ring batch/heartbeat/retry
// timers produces: O(1) insert and cancel over pooled event records.

ScenarioResult SchedChurn(bool quick) {
  sim::Scheduler sched;
  Rng rng(2026);
  constexpr int kTimers = 8192;
  std::vector<std::uint64_t> ids(kTimers, 0);

  auto delay = [&rng]() -> Duration {
    const auto band = rng.below(10);
    if (band < 6) return Micros(1 + static_cast<std::int64_t>(rng.below(64)));
    if (band < 9) return Micros(64 + static_cast<std::int64_t>(rng.below(4000)));
    return Millis(4 + static_cast<std::int64_t>(rng.below(296)));
  };
  std::function<void(int)> arm = [&](int slot) {
    ids[static_cast<std::size_t>(slot)] =
        sched.After(delay(), [&arm, slot] { arm(slot); });
  };
  for (int i = 0; i < kTimers; ++i) arm(i);
  // Cancel/re-arm storm: every 500us, 256 random victims.
  std::function<void()> storm = [&] {
    for (int i = 0; i < 256; ++i) {
      const auto victim = static_cast<int>(rng.below(kTimers));
      sched.Cancel(ids[static_cast<std::size_t>(victim)]);
      arm(victim);
    }
    sched.After(Micros(500), storm);
  };
  sched.After(Micros(500), storm);

  const int chunks = quick ? 40 : 300;
  const int per_chunk = 8192;
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
  return Finish("sched_churn_wheel", "events/s", ops, static_cast<double>(ops),
                wall, per_op);
}

// ---- workload mix: the multi-tenant engine end to end ----
// 8 rings, DefaultMix per ring, one merge learner over everything.
// Rate is delivered msgs/s against the wall; the latency columns are
// the tenants' merged delivery-latency histogram in SIM-time ns — the
// number the saturation sweep cares about.

ScenarioResult WorkloadMix(bool quick) {
  const int n_rings = 8;
  multiring::DeploymentOptions opts;
  opts.n_rings = n_rings;
  opts.lambda_per_sec = 20000;
  multiring::SimDeployment d(opts);
  std::vector<int> rings;
  for (int r = 0; r < n_rings; ++r) rings.push_back(r);

  workload::DriverConfig cfg;
  cfg.mix = workload::DefaultMix();
  for (auto& t : cfg.mix.tenants) t.sessions *= 4;  // 40 sessions/ring
  for (int r : rings) cfg.rings.push_back(d.ring(r));
  auto owned = std::make_unique<workload::WorkloadDriver>(std::move(cfg));
  auto* driver = owned.get();
  d.AddClient(std::move(owned), rings);
  multiring::MergeLearner::Options mo;
  mo.on_deliver = [driver, &d](GroupId, const paxos::ClientMsg& m) {
    driver->RecordDelivery(d.net().now(), m);
  };
  d.AddMergeLearner(rings, std::move(mo));

  d.Start();
  d.RunFor(Seconds(1));  // warm up batching + the MMPP/diurnal phases
  std::uint64_t last = driver->total_delivered();
  const auto sim_chunk = Millis(quick ? 100 : 500);
  const int chunks = quick ? 5 : 12;
  std::uint64_t ops = 0;
  const std::uint64_t t0 = WallNowNs();
  for (int c = 0; c < chunks; ++c) d.RunFor(sim_chunk);
  const std::uint64_t wall = WallNowNs() - t0;
  ops = driver->total_delivered() - last;

  Histogram lat;
  for (std::size_t t = 0; t < 3; ++t) lat.Merge(driver->tenant_stats(t).latency);
  return Finish("workload_mix", "msgs/s", ops, static_cast<double>(ops), wall,
                lat);
}

// ---- scale_100rings: the 10^5-session acceptance scenario ----
// One driver node multiplexing 1000 open-loop sessions on each of 100
// rings (full mode; quick shrinks to 10 x 100 for CI). Rate is
// simulator events/s — the number the timer wheel and pooling moved —
// and ops counts the messages actually submitted.

ScenarioResult Scale100Rings(bool quick) {
  const int n_rings = quick ? 10 : 100;
  const std::uint32_t sessions_per_ring = quick ? 100 : 1000;
  multiring::DeploymentOptions opts;
  opts.n_rings = n_rings;
  opts.lambda_per_sec = 20000;
  multiring::SimDeployment d(opts);
  std::vector<int> rings;
  for (int r = 0; r < n_rings; ++r) rings.push_back(r);

  workload::DriverConfig cfg;
  workload::TenantSpec t;
  t.name = "fleet";
  t.sessions = sessions_per_ring;
  t.arrival.kind = workload::ArrivalKind::kPoisson;
  t.arrival.rate_per_sec = 2;  // 2k msgs/s offered per ring
  t.keys.kind = workload::KeyDistKind::kZipfian;
  t.payload_bytes = 64;
  cfg.mix.tenants.push_back(t);
  cfg.start_jitter = Millis(50);
  for (int r : rings) cfg.rings.push_back(d.ring(r));
  auto owned = std::make_unique<workload::WorkloadDriver>(std::move(cfg));
  auto* driver = owned.get();
  d.AddClient(std::move(owned), rings);

  d.Start();
  d.RunFor(Millis(200));  // let the session fleet spin up
  const auto& sched = d.net().scheduler();
  const std::uint64_t ev0 = sched.events_run();
  const std::uint64_t sub0 = driver->total_submitted();
  const auto sim_chunk = Millis(quick ? 100 : 200);
  const int chunks = quick ? 3 : 5;
  Histogram per_chunk_ev;
  const std::uint64_t t0 = WallNowNs();
  std::uint64_t last_ev = ev0;
  for (int c = 0; c < chunks; ++c) {
    const std::uint64_t c0 = WallNowNs();
    d.RunFor(sim_chunk);
    const std::uint64_t c1 = WallNowNs();
    const std::uint64_t now_ev = sched.events_run();
    if (now_ev > last_ev) {
      per_chunk_ev.RecordValue((c1 - c0) / (now_ev - last_ev));
    }
    last_ev = now_ev;
  }
  const std::uint64_t wall = WallNowNs() - t0;
  const std::uint64_t events = sched.events_run() - ev0;
  std::printf("  [scale] rings=%d sessions=%zu submitted=%" PRIu64
              " sim_events=%" PRIu64 " pool_reuse=%" PRIu64 "\n",
              n_rings, driver->session_count(),
              driver->total_submitted() - sub0, events, sched.pool_reused());
  return Finish("scale_100rings", "events/s",
                driver->total_submitted() - sub0,
                static_cast<double>(events), wall, per_chunk_ev);
}

// ---- merge-learner saturation sweep (EXPERIMENTS.md) ----
// For each (groups, offered lambda, rate skew) cell, drive `groups`
// rings from one workload driver with per-ring rates following a
// geometric skew (skew=0: uniform; skew s: ring r carries weight
// (1-s)^r, normalised), subscribe one merge learner to everything and
// report delivered/offered plus delivery-latency p50/p99/p99.9. The
// saturation point is the first lambda where delivered/offered drops
// below ~0.95 or p99 detaches from delta.

void RunSweep(bool quick) {
  std::printf("%7s %9s %6s %10s %10s %9s %9s %9s %7s\n", "groups", "lambda",
              "skew", "offered/s", "deliv/s", "p50_ms", "p99_ms", "p999_ms",
              "ratio");
  const std::vector<int> group_counts = quick ? std::vector<int>{4}
                                              : std::vector<int>{4, 8, 16};
  // Instances carry 8 kB batches, so the learner's per-message recv
  // cost is amortised and the knee sits in the hundreds of k msgs/s
  // (its 1 GbE access link caps aggregate delivery near ~500k/s of
  // ~230-byte messages). The axis has to reach past that to find it.
  const std::vector<double> lambdas =
      quick ? std::vector<double>{4000}
            : std::vector<double>{16000, 64000, 128000, 256000,
                                  384000, 512000, 640000, 768000};
  const std::vector<double> skews = quick ? std::vector<double>{0.0}
                                          : std::vector<double>{0.0, 0.3};
  for (int groups : group_counts) {
    for (double skew : skews) {
      for (double lambda : lambdas) {
        multiring::DeploymentOptions opts;
        opts.n_rings = groups;
        opts.lambda_per_sec = 100000;  // rings themselves never throttle
        multiring::SimDeployment d(opts);
        std::vector<int> rings;
        for (int r = 0; r < groups; ++r) rings.push_back(r);

        // Geometric per-ring weights; sessions-per-ring is fixed, the
        // per-session rate carries the skew.
        std::vector<double> weight(static_cast<std::size_t>(groups));
        double wsum = 0;
        for (int r = 0; r < groups; ++r) {
          weight[static_cast<std::size_t>(r)] =
              skew == 0.0 ? 1.0 : std::pow(1.0 - skew, r);
          wsum += weight[static_cast<std::size_t>(r)];
        }
        // One driver per ring so each ring gets its own tenant rate.
        std::vector<workload::WorkloadDriver*> drivers;
        for (int r = 0; r < groups; ++r) {
          workload::DriverConfig cfg;
          workload::TenantSpec t;
          t.name = "sweep";
          t.sessions = 20;
          t.arrival.kind = workload::ArrivalKind::kPoisson;
          t.arrival.rate_per_sec =
              lambda * weight[static_cast<std::size_t>(r)] / wsum / 20.0;
          t.keys.kind = workload::KeyDistKind::kZipfian;
          t.payload_bytes = 200;
          cfg.mix.tenants.push_back(t);
          cfg.driver_id = static_cast<std::uint64_t>(r);
          cfg.rings = {d.ring(r)};
          auto owned =
              std::make_unique<workload::WorkloadDriver>(std::move(cfg));
          drivers.push_back(owned.get());
          d.AddClient(std::move(owned), {r});
        }
        multiring::MergeLearner::Options mo;
        mo.on_deliver = [&drivers, &d](GroupId, const paxos::ClientMsg& m) {
          for (auto* dr : drivers) dr->RecordDelivery(d.net().now(), m);
        };
        d.AddMergeLearner(rings, std::move(mo));
        d.Start();
        const Duration warm = Seconds(1);
        const Duration meas = quick ? Seconds(1) : Seconds(4);
        d.RunFor(warm);
        std::uint64_t sub0 = 0, del0 = 0;
        for (auto* dr : drivers) {
          sub0 += dr->total_submitted();
          del0 += dr->total_delivered();
        }
        d.RunFor(meas);
        std::uint64_t sub = 0, del = 0;
        Histogram lat;
        for (auto* dr : drivers) {
          sub += dr->total_submitted();
          del += dr->total_delivered();
          lat.Merge(dr->tenant_stats(0).latency);
        }
        // Latency percentiles cover the full run (histograms only
        // merge); the 4x longer measurement window dominates warmup.
        const double secs = ToSeconds(meas);
        const double offered = static_cast<double>(sub - sub0) / secs;
        const double delivered = static_cast<double>(del - del0) / secs;
        const LatencySummary ls = Summarize(lat);
        std::printf("%7d %9.0f %6.1f %10.0f %10.0f %9.2f %9.2f %9.2f %7.3f\n",
                    groups, lambda, skew, offered, delivered, ls.p50_ms,
                    ls.p99_ms, ls.p999_ms,
                    offered > 0 ? delivered / offered : 0.0);
      }
    }
  }
}

void WriteJson(const char* path, const char* mode,
               const std::vector<ScenarioResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "scale_suite: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"mrp-bench-scale/v1\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n  \"scenarios\": {\n", mode);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    \"%s\": {\"unit\": \"%s\", \"rate\": %.1f, "
                 "\"p50_ns\": %.0f, \"p99_ns\": %.0f, \"p999_ns\": %.0f, "
                 "\"ops\": %" PRIu64 "}%s\n",
                 r.name.c_str(), r.unit.c_str(), r.rate, r.p50_ns, r.p99_ns,
                 r.p999_ns, r.ops, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const char* out = FlagValue(argc, argv, "--out");
  if (out == nullptr) out = "BENCH_scale.json";

  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sweep") sweep = true;
  }
  if (sweep) {
    PrintHeader("Merge-learner saturation sweep",
                "groups x lambda x rate-skew; results go to EXPERIMENTS.md");
    RunSweep(quick);
    return 0;
  }

  PrintHeader("Scale suite (workload engine + simulator scale-out)",
              quick ? "quick mode (CI smoke): shorter runs, noisier"
                    : "full mode: baseline-quality runs");

  std::vector<ScenarioResult> results;
  results.push_back(SchedChurn(quick));
  results.push_back(WorkloadMix(quick));
  results.push_back(Scale100Rings(quick));

  std::printf("%-20s %14s %10s %10s %10s %10s %10s\n", "scenario", "rate",
              "unit", "p50(ns)", "p99(ns)", "p99.9(ns)", "ops");
  for (const auto& r : results) {
    std::printf("%-20s %14.0f %10s %10.0f %10.0f %10.0f %10" PRIu64 "\n",
                r.name.c_str(), r.rate, r.unit.c_str(), r.p50_ns, r.p99_ns,
                r.p999_ns, r.ops);
  }

  WriteJson(out, quick ? "quick" : "full", results);
  std::printf("json -> %s\n", out);
  return 0;
}
