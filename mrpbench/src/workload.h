// Workload definitions shared by the simulator and runtime workloads: the
// deployment shape, its roles (wrapped in probe decorators), the output
// checks, the load-honesty gates and the result record.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "multiring/merge_learner.h"
#include "probe.h"
#include "ringpaxos/config.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"

namespace mrpbench {

// Every ring has 2 acceptors, 8 kB batches and Delta = 1 ms.
struct WorkloadSpec {
  std::string name;
  bool sim = true;
  bool udp = false;  // runtime transport: UDP loopback, else in-proc bus
  int rings = 2;
  double lambda = 20000;
  std::size_t trim_keep = 50'000;
  // Closed loop: `clients_per_ring` proposers with `window` each. Open
  // loop: one Poisson proposer per ring with a non-zero rate.
  int clients_per_ring = 4;
  std::size_t window = 8;
  std::vector<double> open_rates;  // msgs/s per ring; empty = closed loop
  std::uint32_t payload = 8 * 1024;
  bool delivery_acks = true;  // learner acks each delivery to its proposer
  bool ack_submits = false;   // coordinator acks decided submissions
  // Simulator: simulated warm-up and window. Runtime: settling time
  // after set-up; the window is --seconds split over the repetitions.
  Duration warmup = mrp::Millis(500);
  Duration measure = mrp::Seconds(4);
  // Load-honesty bound on second-half p50 over first-half p50.
  double max_latency_growth = 0.25;
};

// Load-honesty bounds shared by every workload.
constexpr double kMinDeliveredFrac = 0.9;  // delivered/offered in the window
constexpr double kMaxRetransmitFrac = 0.01;

// Node ids of every role: ring r's members then (simulator, ring 0
// only) one spare, then the merge learner, then proposers. Ring 0's
// spare is what lets it survive the simulated coordinator crash.
struct Plan {
  std::vector<mrp::ringpaxos::RingConfig> rings;
  std::vector<std::vector<NodeId>> ring_nodes;  // members, then spares
  NodeId learner = mrp::kNoNode;
  struct Client {
    int ring = 0;
    NodeId node = mrp::kNoNode;
    double rate = 0;  // 0 = closed loop
  };
  std::vector<Client> clients;
  std::size_t node_count = 0;
};

Plan MakePlan(const WorkloadSpec& w);

// Per-proposer submission record (written on the proposer's thread).
struct ClientRecord {
  static constexpr std::size_t kStampSlots = 1 << 16;
  std::atomic<std::uint64_t> submitted{0};  // highest seq handed out
  // Runtime only: submit stamps (WallNs) by seq modulo kStampSlots.
  std::unique_ptr<std::atomic<std::int64_t>[]> stamps;
  ClientGate gate;
};

// Output check at the learner: each proposer's messages must arrive in
// submission order, none missing. Duplicates are counted; the caller
// decides which are explained (a client resubmits its outstanding
// messages to a new coordinator, and Ring Paxos orders such a resubmitted
// message again). Runs on the learner's thread.
class DeliveryCheck {
 public:
  void OnDeliver(GroupId group, NodeId proposer, std::uint64_t seq) {
    auto& p = per_proposer_[proposer];
    if (seq >= p.seen.size()) p.seen.resize(std::max<std::size_t>(seq + 1, 2 * p.seen.size()));
    if (p.seen[seq]) {
      ++duplicates_;
    } else {
      p.seen[seq] = 1;
      if (seq < p.max_seq) ++reordered_;
      p.max_seq = std::max(p.max_seq, seq);
      ++p.delivered;
    }
    digest_ = (digest_ ^ group) * 0x100000001b3ULL;
    digest_ = (digest_ ^ proposer) * 0x100000001b3ULL;
    digest_ = (digest_ ^ seq) * 0x100000001b3ULL;
  }

  // Submitted messages (seqs 1..n per proposer) never delivered.
  std::uint64_t Missing(const std::map<NodeId, std::uint64_t>& submitted) const {
    std::uint64_t missing = 0;
    for (const auto& [node, n] : submitted) {
      auto it = per_proposer_.find(node);
      const std::uint64_t got = it == per_proposer_.end() ? 0 : it->second.delivered;
      missing += got >= n ? 0 : n - got;
    }
    return missing;
  }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t reordered() const { return reordered_; }
  std::uint64_t digest() const { return digest_; }

 private:
  struct PerProposer {
    std::vector<std::uint8_t> seen;
    std::uint64_t max_seq = 0;
    std::uint64_t delivered = 0;
  };
  std::map<NodeId, PerProposer> per_proposer_;
  std::uint64_t duplicates_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

// Messages that fail the output check: missing ones, first deliveries
// out of submission order, any duplicate before the crash, and
// duplicates after it beyond the client's resubmissions.
inline std::uint64_t UnexplainedFailures(std::uint64_t missing, std::uint64_t reordered,
                                         std::uint64_t dups_before_crash,
                                         std::uint64_t dups_total,
                                         std::uint64_t resubmitted) {
  const std::uint64_t dups_after = dups_total - dups_before_crash;
  return missing + reordered + dups_before_crash +
         (dups_after > resubmitted ? dups_after - resubmitted : 0);
}

// The deployment's roles, wrapped. Clients are always wrapped (the gate
// freezes them for the drain); other roles only in traced runs.
struct Roles {
  std::vector<std::unique_ptr<mrp::Protocol>> protocols;  // by node id
  std::vector<mrp::ringpaxos::RingNode*> ring_nodes;      // by node id, or null
  std::vector<ProbeProtocol*> probes;                     // by node id, or null
  mrp::multiring::MergeLearner* learner = nullptr;
  std::vector<std::unique_ptr<ClientRecord>> clients;  // by plan client index
  std::map<NodeId, ClientRecord*> client_by_node;
};

// `on_deliver` runs on the learner's thread for every delivery. With
// `runtime_stamps` submissions are stamped with WallNs() and the clients
// draw their arrivals from generators seeded by `seed`.
Roles MakeRoles(const WorkloadSpec& w, const Plan& plan, Probe& probe,
                std::vector<NodeStats>* node_stats,
                mrp::multiring::MergeLearner::DeliverFn on_deliver,
                bool runtime_stamps, std::uint64_t seed);

// Exact percentile (linear interpolation between order statistics);
// reorders `v`.
double Percentile(std::vector<std::int64_t>& v, double q);
double Median(std::vector<double> v);
// a / b, or 0 when b is 0.
double Ratio(double a, double b);

// One benchmark run's outcome.
struct Result {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed before the result line

  void Fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// Adds every per-layer metric, in a fixed order with its unit. Layers a
// workload does not run through are absent from `values` and read 0.
void AddLayerMetrics(Result& r, const std::map<std::string, double>& values);

// Least share of window deliveries that must carry a complete, ordered
// set of stage stamps.
constexpr double kMinStampedShare = 0.99;

// Stage means (ms), merge-wait percentiles and the share of window
// deliveries with complete stamps into `layer`. Fails `r` when that
// share is below kMinStampedShare or a stage undercuts its floor.
// Returns the stage sum error: |sum of stage means - e2e mean| / e2e mean.
double AddStageMetrics(Result& r, std::map<std::string, double>& layer,
                       const StageTracker::Summary& stages, double e2e_mean_ns);

void FailOutputCheck(Result& r, std::uint64_t failed, std::uint64_t attempted,
                     std::uint64_t duplicates, std::uint64_t reordered);

// Gate helpers: each failure names the gate and the numbers.
void GateDeliveredFrac(Result& r, double delivered, double offered, double min_frac);
void GateRetransmits(Result& r, double retransmit_frac, double max_frac);
void GateLatencyGrowth(Result& r, double p50_first, double p50_second, double max_growth);

// Resident-set high-water mark since the last ResetPeakRss(), MB.
double PeakRssMb();
// Restarts the high-water mark at the current resident set, so each
// repetition reports its own peak.
void ResetPeakRss();
// Current resident set, MB.
double CurrentRssMb();

// Host CPU time, all CPUs, from /proc/stat: what the hypervisor took
// from this machine ("steal") out of the total. On a shared host, steal
// is what moves the runtime workloads' wall-clock numbers.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  double StealFrac(const HostTicks& earlier) const {
    return total > earlier.total ? static_cast<double>(steal - earlier.steal) /
                                       static_cast<double>(total - earlier.total)
                                 : 0;
  }
};
HostTicks ReadHostTicks();

std::string Fmt(const char* fmt, ...);

// Wall time of a fixed discrete-event loop the benchmark owns (heap of
// timed events, allocated messages, hash-map traffic): the host's
// current speed for simulator-like work. It never changes with the
// system under test.
double ReferenceNs();

// Workload entry points. `trace` selects the per-layer (traced) run;
// `spans_path` receives the span sample when non-empty.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);
Result RunSim(const WorkloadSpec& w, const RunOptions& opts);
Result RunRuntime(const WorkloadSpec& w, const RunOptions& opts);

}  // namespace mrpbench
