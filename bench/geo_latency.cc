// Geo benchmark (Stretching M-RP territory, beyond the paper's LAN
// figures): Multi-Ring Paxos deployed over a WAN topology
// (sim/topology.h). Two experiments:
//
//  A. Per-site delivery-latency CDFs. Three sites in a full mesh, one
//     ring per site, a merge learner in every site subscribed to all
//     groups. Each site's latency distribution separates by its
//     distance to the remote coordinators; a latency-compensated
//     learner (hold-until sent_at + D) collapses the inter-site skew.
//
//  B. Closed-loop throughput vs inter-site RTT. Two sites, one ring
//     each, delivery-acked closed-loop clients driving a merge learner
//     that spans both: throughput falls as the configured RTT grows,
//     the WAN cost the topology model is meant to expose.
//
// --quick runs ~2 simulated seconds total (the CI smoke budget).
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/topology.h"

namespace {

using namespace mrp;         // NOLINT
using namespace mrp::bench;  // NOLINT
using multiring::DeploymentOptions;
using multiring::MergeLearner;
using multiring::SimDeployment;

sim::LinkSpec WanLink(Duration latency) {
  sim::LinkSpec s;
  s.latency = latency;
  s.jitter = Micros(200);  // WAN paths jitter more than a LAN switch
  return s;
}

void PrintCdfRow(const char* site, const char* kind,
                 const MergeLearner& l) {
  Histogram all;
  for (std::size_t g = 0; g < l.group_count(); ++g) {
    all.Merge(const_cast<MergeLearner&>(l).stats(g).latency);
  }
  const bench::LatencySummary ls = bench::Summarize(all);
  std::printf("  %-6s %-12s %8" PRIu64 "  %8.2f %8.2f %8.2f %8.2f\n", site,
              kind, ls.count, ls.p10_ms, ls.p50_ms, ls.p90_ms, ls.p99_ms);
}

void RunPerSiteCdfs(bool quick, const char* csv_dir) {
  // Asymmetric triangle: eu-us 10 ms, us-asia 25 ms, eu-asia 40 ms.
  // Shortest path eu->asia is 35 ms via us, so the routing layer shows
  // up in asia's numbers, not just the raw link table.
  const std::vector<std::string> names = {"eu", "us", "asia"};
  DeploymentOptions opts;
  opts.n_rings = 3;
  opts.net.seed = 1;
  sim::Topology topo;
  for (const auto& n : names) topo.AddSite(n);
  topo.Connect(0, 1, WanLink(Millis(10)));
  topo.Connect(1, 2, WanLink(Millis(25)));
  topo.Connect(0, 2, WanLink(Millis(40)));
  opts.net.topology = topo;
  opts.ring_sites = {0, 1, 2};
  SimDeployment d(opts);

  // Per site: a learner following only ring 0 (group latency tracks
  // the site's distance to eu), plus all-group learners with and
  // without latency compensation (target above the 35 ms diameter).
  std::vector<MergeLearner*> ring0, plain, comp;
  for (sim::SiteId s = 0; s < 3; ++s) {
    ring0.push_back(d.AddMergeLearner({0}, {}, s));
    plain.push_back(d.AddMergeLearner({0, 1, 2}, {}, s));
    MergeLearner::Options compensated;
    compensated.latency_compensation = Millis(45);
    comp.push_back(d.AddMergeLearner({0, 1, 2}, std::move(compensated), s));
  }
  for (int r = 0; r < 3; ++r) {
    AddOpenLoopClient(d, r, {{Seconds(0), 400}}, 1024);
  }
  d.Start();
  d.RunFor(quick ? Seconds(1) : Seconds(10));

  std::printf("\nA. Per-site delivery latency (eu-us 10 ms, us-asia 25 ms, "
              "eu-asia 40 ms)\n");
  std::printf("  %-6s %-12s %8s  %8s %8s %8s %8s\n", "site", "learner",
              "msgs", "p10ms", "p50ms", "p90ms", "p99ms");
  for (sim::SiteId s = 0; s < 3; ++s) {
    PrintCdfRow(names[s].c_str(), "ring0-only", *ring0[s]);
    PrintCdfRow(names[s].c_str(), "all-groups", *plain[s]);
    PrintCdfRow(names[s].c_str(), "comp-45ms", *comp[s]);
  }
  std::printf("  Expected shape: ring0-only p50 tracks each site's distance\n"
              "  to eu (~LAN / ~10 ms / ~35 ms via us); all-groups p50 is\n"
              "  gated by each site's farthest group; comp-45ms aligns all\n"
              "  sites near the 45 ms target.\n");

  if (csv_dir != nullptr) {
    const std::string path = std::string(csv_dir) + "/geo_cdf.csv";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "site,learner,quantile,latency_ms\n");
      for (sim::SiteId s = 0; s < 3; ++s) {
        for (double q = 0.05; q <= 0.99; q += 0.05) {
          Histogram hp, hc;
          for (std::size_t g = 0; g < 3; ++g) {
            hp.Merge(plain[s]->stats(g).latency);
            hc.Merge(comp[s]->stats(g).latency);
          }
          std::fprintf(f, "%s,natural,%.2f,%.3f\n", names[s].c_str(), q,
                       hp.Quantile(q) / 1e6);
          std::fprintf(f, "%s,comp,%.2f,%.3f\n", names[s].c_str(), q,
                       hc.Quantile(q) / 1e6);
        }
      }
      std::fclose(f);
      std::printf("  csv -> %s\n", path.c_str());
    }
  }
}

void RunThroughputVsRtt(bool quick, const char* csv_dir) {
  std::printf("\nB. Closed-loop throughput vs inter-site RTT (2 sites, "
              "1 ring each)\n");
  std::printf("  %8s %10s %10s %10s\n", "rtt_ms", "msg/s", "mbps",
              "lat_ms");
  std::FILE* f = nullptr;
  if (csv_dir != nullptr) {
    const std::string path = std::string(csv_dir) + "/geo_rtt.csv";
    f = std::fopen(path.c_str(), "w");
    if (f != nullptr) std::fprintf(f, "rtt_ms,msg_per_s,mbps,latency_ms\n");
  }
  const std::vector<double> rtts =
      quick ? std::vector<double>{10, 50} : std::vector<double>{2,  10, 20,
                                                                50, 100};
  const Duration run = quick ? Millis(500) : Seconds(5);
  constexpr std::uint32_t kPayload = 1024;
  for (double rtt_ms : rtts) {
    DeploymentOptions opts;
    opts.n_rings = 2;
    opts.net.seed = 1;
    sim::Topology topo;
    const sim::SiteId west = topo.AddSite("west");
    topo.Connect(west, topo.AddSite("east"),
                 WanLink(Millis(static_cast<std::int64_t>(rtt_ms)) / 2));
    opts.net.topology = topo;
    opts.ring_sites = {0, 1};
    SimDeployment d(opts);
    MergeLearner::Options mo;
    mo.send_delivery_acks = true;
    auto* learner = d.AddMergeLearner({0, 1}, std::move(mo));
    for (int r = 0; r < 2; ++r) {
      ringpaxos::ProposerConfig pc;
      pc.max_outstanding = 16;
      pc.payload_size = kPayload;
      d.AddProposer(r, pc);
    }
    d.Start();
    d.RunFor(run);
    const double secs = ToSeconds(run);
    const double msg_s =
        static_cast<double>(learner->total_delivered()) / secs;
    const double mbps = msg_s * kPayload * 8.0 / 1e6;
    Histogram all;
    for (std::size_t g = 0; g < learner->group_count(); ++g) {
      all.Merge(learner->stats(g).latency);
    }
    const double lat_ms = bench::Summarize(all).trimmed_mean_ms;
    std::printf("  %8.0f %10.0f %10.2f %10.2f\n", rtt_ms, msg_s, mbps,
                lat_ms);
    if (f != nullptr) {
      std::fprintf(f, "%.0f,%.0f,%.3f,%.3f\n", rtt_ms, msg_s, mbps, lat_ms);
    }
  }
  if (f != nullptr) std::fclose(f);
  std::printf("  Expected shape: msg/s falls roughly with 1/RTT (the ack\n"
              "  loop crosses the WAN); latency tracks the configured RTT.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  PrintHeader("Geo: WAN topology latency/throughput",
              "Per-site delivery CDFs over a 3-site mesh, and closed-loop\n"
              "throughput as the inter-site RTT grows (docs/TOPOLOGY.md).");
  RunPerSiteCdfs(quick, CsvDir(argc, argv));
  RunThroughputVsRtt(quick, CsvDir(argc, argv));
  return 0;
}
