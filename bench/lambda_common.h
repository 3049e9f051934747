// Shared time-series runner for Figures 9-11 (the effect of lambda under
// different rate profiles). Two rings, one learner subscribed to both,
// open-loop Poisson proposers with step schedules; per-second samples of
// multicast rates, delivery latency and learner buffering.
#pragma once

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace mrp::bench {

struct LambdaScenario {
  // Per-ring rate schedules, msg/s of 8 kB payloads.
  std::vector<ringpaxos::ProposerConfig::RatePoint> ring1;
  std::vector<ringpaxos::ProposerConfig::RatePoint> ring2;
  double osc_amplitude = 0;       // applied to both rings
  Duration osc_period = Seconds(10);
  std::size_t max_buffer_msgs = 20000;  // learner halt threshold
  Duration total = Seconds(100);
  Duration sample = Seconds(1);
  // The paper's proposers send at constant rates from real machines:
  // arrivals are evenly spaced (not Poisson) but the two senders' clocks
  // drift slightly apart. This skew is what makes the rings go
  // "out-of-sync" at the learner when skips are disabled.
  bool poisson = false;
  double clock_skew = 0.002;  // ring1 +0.2%, ring2 -0.2%
};

inline void RunLambdaSeries(double lambda, const LambdaScenario& sc,
                            const char* csv_dir = nullptr,
                            const char* csv_tag = nullptr) {
  multiring::DeploymentOptions opts;
  opts.n_rings = 2;
  opts.lambda_per_sec = lambda;
  opts.delta = Millis(1);
  multiring::SimDeployment d(opts);
  multiring::MergeLearner::Options mo;
  mo.max_buffer_msgs = sc.max_buffer_msgs;
  auto* learner = d.AddMergeLearner({0, 1}, std::move(mo));
  for (int r = 0; r < 2; ++r) {
    ringpaxos::ProposerConfig pc;
    pc.schedule = r == 0 ? sc.ring1 : sc.ring2;
    const double skew = 1.0 + (r == 0 ? sc.clock_skew : -sc.clock_skew);
    for (auto& pt : pc.schedule) pt.rate *= skew;
    pc.payload_size = 8 * 1024;
    pc.poisson = sc.poisson;
    pc.osc_amplitude = sc.osc_amplitude;
    pc.osc_period = sc.osc_period;
    d.AddProposer(r, pc);
  }
  d.Start();

  std::printf("lambda=%.0f/s\n", lambda);
  std::printf("%6s %10s %10s %10s %12s %10s %7s\n", "t(s)", "ring1Mbps",
              "ring2Mbps", "totalMbps", "latency(ms)", "buffered", "halted");
  std::ofstream csv;
  if (csv_dir != nullptr && csv_tag != nullptr) {
    csv.open(std::string(csv_dir) + "/" + csv_tag + "_lambda" +
             std::to_string(static_cast<long long>(lambda)) + ".csv");
    csv << "t_s,ring1_mbps,ring2_mbps,total_mbps,latency_ms,buffered,halted\n";
  }
  for (TimePoint t{0}; t < sc.total; t += sc.sample) {
    d.RunFor(sc.sample);
    double mbps[2];
    Histogram lat;
    for (std::size_t g = 0; g < 2; ++g) {
      mbps[g] = learner->stats(g).delivered.TakeWindow().Mbps(sc.sample);
      lat.Merge(learner->stats(g).latency);
      learner->stats(g).latency.Reset();
    }
    const auto secs = (t + sc.sample).count() / 1'000'000'000;
    const LatencySummary ls = Summarize(lat);
    if (csv.is_open()) {
      csv << secs << ',' << mbps[0] << ',' << mbps[1] << ','
          << mbps[0] + mbps[1] << ',' << ls.trimmed_mean_ms << ','
          << learner->buffered_msgs() << ',' << (learner->halted() ? 1 : 0)
          << '\n';
    }
    // Print one row every 2 simulated seconds to keep the table readable.
    if (secs % 2 == 0) {
      std::printf("%6lld %10.1f %10.1f %10.1f %12.2f %10zu %7s\n",
                  static_cast<long long>(secs), mbps[0], mbps[1],
                  mbps[0] + mbps[1], ls.trimmed_mean_ms,
                  learner->buffered_msgs(), learner->halted() ? "HALT" : "-");
    }
  }
  std::printf("\n");
}

// Rate steps every 20 s (the paper raises the multicast rate at 20 s
// intervals). `mbps` are per-ring application rates.
inline std::vector<ringpaxos::ProposerConfig::RatePoint> Steps(
    std::vector<double> mbps) {
  std::vector<ringpaxos::ProposerConfig::RatePoint> out;
  TimePoint t{0};
  for (double m : mbps) {
    out.push_back({t, m * 1e6 / 8 / 8192});  // Mbps -> 8 kB msg/s
    t += Seconds(20);
  }
  return out;
}

}  // namespace mrp::bench
