// Recovery time and throughput dip: peer snapshot transfer vs log
// replay (docs/RECOVERY.md). A two-ring deployment delivers L messages,
// then a recovery-enabled learner crash-loses its state and comes back
// either (a) bootstrapping from its peer's checkpoint — resuming at the
// cut — or (b) cold-starting from instance 0 and replaying the whole
// retained log (frontier-gated trimming keeps it available). For each
// log length and snapshot interval the bench reports the sim time from
// revive to full catch-up, the number of messages the revived learner
// had to (re)apply, and the reference learner's delivery-rate dip while
// the recovery was in flight. The claim under test: snapshot recovery
// is bounded work independent of L, log replay is linear in L.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "check/oracles.h"
#include "check/recovery_oracle.h"
#include "recovery/checkpoint.h"
#include "recovery/hash_app.h"
#include "recovery/recoverable_learner.h"
#include "sim/snapshot_disk.h"

namespace {

using namespace mrp;         // NOLINT
using namespace mrp::bench;  // NOLINT

struct Result {
  const char* mode = "";
  std::uint64_t log_len = 0;
  std::int64_t snap_interval_ms = 0;
  double recovery_ms = 0;      // revive -> caught up with the reference
  std::uint64_t reapplied = 0; // messages (re)applied below the crash point
  std::uint64_t chunks = 0;    // snapshot chunks transferred
  double ref_rate_steady = 0;  // reference msg/s before the crash
  double ref_rate_dip = 0;     // reference msg/s while recovering
  bool ok = false;             // oracle clean + catch-up reached
  // Catch-up never completed: with a long history the acceptors'
  // retained log no longer reaches instance 0 (trim_keep instances
  // below the watermark), so log replay is not merely slow but
  // impossible — the scenario checkpoints exist for.
  bool stuck = false;
};

Result RunScenario(bool snapshot_mode, std::uint64_t log_len,
                   Duration snap_interval, std::uint64_t seed) {
  Result res;
  res.mode = snapshot_mode ? "snapshot" : "log-replay";
  res.log_len = log_len;
  res.snap_interval_ms = snap_interval.count() / 1'000'000;

  multiring::DeploymentOptions opts;
  opts.n_rings = 2;
  opts.ring_size = 2;
  opts.net.seed = seed;
  opts.frontier_gated_trim = true;
  multiring::SimDeployment d(opts);
  const std::vector<int> rings = {0, 1};

  check::OracleSuite suite;
  check::RecoveryOracle oracle(&suite);
  std::vector<std::unique_ptr<recovery::HashApp>> apps;

  auto& coord_node = d.net().AddNode();
  // Snapshot disks outlive the crash-replaced protocol objects.
  std::vector<std::unique_ptr<sim::SimSnapshotPersistence>> disks;
  sim::SimNode* rec_a = nullptr;  // reference + snapshot server
  sim::SimNode* rec_b = nullptr;  // crash target

  auto make_opts = [&](bool target) {
    recovery::RecoverableLearner::Options ro;
    apps.push_back(std::make_unique<recovery::HashApp>());
    auto* app = apps.back().get();
    ro.app = app;
    ro.coordinator = coord_node.self();
    if (target) {
      if (snapshot_mode) ro.fetch.peers = {rec_a->self()};
      ro.merge.on_deliver = [app, &oracle](GroupId g,
                                           const paxos::ClientMsg& m) {
        oracle.OnRecoveredDeliver(g, m);
        app->Apply(g, m);
      };
      ro.on_restore = [&oracle](std::uint64_t resume,
                                const recovery::Checkpoint&) {
        oracle.BeginRecovered(resume);
      };
    } else {
      ro.merge.on_deliver = [app, &oracle](GroupId g,
                                           const paxos::ClientMsg& m) {
        oracle.OnReferenceDeliver(g, m);
        app->Apply(g, m);
      };
    }
    return ro;
  };

  for (auto* rec : {&rec_a, &rec_b}) {
    d.AddLearnerNode(
        rings, [&](sim::SimNode& node,
                   std::vector<ringpaxos::LearnerOptions> groups) {
          *rec = &node;
          disks.push_back(std::make_unique<sim::SimSnapshotPersistence>(node));
          auto ro = make_opts(rec == &rec_b);
          ro.persistence = disks.back().get();
          ro.merge.groups = std::move(groups);
          return std::make_unique<recovery::RecoverableLearner>(std::move(ro));
        });
  }
  recovery::CheckpointCoordinator::Options co;
  co.interval = snap_interval;
  co.learners = {rec_a->self(), rec_b->self()};
  for (int r : rings) {
    co.rings.emplace_back(d.ring(r).ring, d.ring(r).control_channel);
  }
  coord_node.BindProtocol(
      std::make_unique<recovery::CheckpointCoordinator>(std::move(co)));
  auto* app_a = apps[0].get();
  auto* app_b = apps[1].get();

  for (int r : rings) {
    for (int c = 0; c < 4; ++c) {
      ringpaxos::ProposerConfig pc;
      pc.payload_size = 512;
      pc.max_outstanding = 64;
      d.AddProposer(r, pc);
    }
  }
  d.Start();

  // Phase 1: deliver L messages at the reference.
  const Duration step = Millis(20);
  const Duration phase_cap = Seconds(120);
  TimePoint t{0};
  while (app_a->count() < log_len && t < TimePoint{0} + phase_cap) {
    d.RunFor(step);
    t += step;
  }
  if (app_a->count() < log_len) return res;  // never reached target rate
  const double steady_window_s =
      static_cast<double>(t.count()) / 1e9;
  res.ref_rate_steady = static_cast<double>(app_a->count()) / steady_window_s;

  // Phase 2: crash the target, let traffic continue briefly.
  rec_b->SetDown(true);
  d.RunFor(Millis(100));

  // Phase 3: revive and measure catch-up. In log-replay mode the fetch
  // peer list is empty, so the manager completes immediately with an
  // empty checkpoint and the merge cold-starts at instance 0.
  auto revived = make_opts(true);
  revived.recover_on_start = true;
  revived.persistence = disks[1].get();
  revived.merge.groups = d.spec().LearnerGroups(rings);
  rec_b->ReplaceProtocol(
      std::make_unique<recovery::RecoverableLearner>(std::move(revived)));
  auto* learner_b = rec_b->protocol_as<recovery::RecoverableLearner>();
  app_b = apps.back().get();  // the revived learner got a fresh app
  rec_b->SetDown(false);
  rec_b->Start();
  const TimePoint revive_at = d.net().now();
  const std::uint64_t a_at_revive = app_a->count();

  const Duration recover_cap = Seconds(120);
  while (app_b->count() < app_a->count() &&
         d.net().now() < revive_at + recover_cap) {
    d.RunFor(step);
  }
  const TimePoint caught_up_at = d.net().now();
  if (app_b->count() < app_a->count()) {
    res.stuck = true;  // replay cannot reach a prefix that was trimmed
    return res;
  }

  res.recovery_ms =
      static_cast<double>((caught_up_at - revive_at).count()) / 1e6;
  // Snapshot mode restores the app counter to the checkpoint, so the
  // post-restore count difference is exactly what had to be reapplied
  // below + beyond the crash point; subtract the live suffix delivered
  // since revive to isolate the replayed backlog.
  const std::uint64_t live_suffix = app_a->count() - a_at_revive;
  const std::uint64_t applied_since_restore =
      app_b->count() - learner_b->resume_index();
  res.reapplied = applied_since_restore > live_suffix
                      ? applied_since_restore - live_suffix
                      : 0;
  res.chunks = learner_b->fetcher().chunks_received();
  const double recovery_window_s =
      static_cast<double>((caught_up_at - revive_at).count()) / 1e9;
  res.ref_rate_dip =
      recovery_window_s > 0
          ? static_cast<double>(app_a->count() - a_at_revive) /
                recovery_window_s
          : res.ref_rate_steady;

  oracle.Finish();
  res.ok = suite.ok();
  if (!res.ok) std::fprintf(stderr, "%s", suite.Report().c_str());
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);

  const std::vector<std::uint64_t> log_lens =
      quick ? std::vector<std::uint64_t>{2'000}
            : std::vector<std::uint64_t>{5'000, 20'000, 50'000};
  const std::vector<Duration> snap_intervals =
      quick ? std::vector<Duration>{Millis(100)}
            : std::vector<Duration>{Millis(100), Millis(400)};

  PrintHeader("Recovery time: peer snapshot transfer vs log replay",
              "Crash after L delivered messages; time from revive to full\n"
              "catch-up with the never-crashed reference learner. Snapshot\n"
              "recovery must stay flat in L; log replay grows with L.");
  std::printf("%-10s %8s %8s | %11s %10s %7s | %10s %10s | %3s\n", "mode",
              "L", "snap_ms", "recover_ms", "reapplied", "chunks", "ref_msg/s",
              "dip_msg/s", "ok");

  bool all_ok = true;
  bool any_log_gone = false;
  for (std::uint64_t len : log_lens) {
    for (Duration interval : snap_intervals) {
      const Result r = RunScenario(true, len, interval, /*seed=*/len + 1);
      std::printf("%-10s %8llu %8lld | %11.1f %10llu %7llu | %10.0f %10.0f | %3s\n",
                  r.mode, static_cast<unsigned long long>(r.log_len),
                  static_cast<long long>(r.snap_interval_ms), r.recovery_ms,
                  static_cast<unsigned long long>(r.reapplied),
                  static_cast<unsigned long long>(r.chunks),
                  r.ref_rate_steady, r.ref_rate_dip, r.ok ? "yes" : "NO");
      all_ok = all_ok && r.ok;
    }
    // The log-replay baseline has no snapshot interval dimension.
    const Result r = RunScenario(false, len, Millis(100), /*seed=*/len + 1);
    if (r.stuck) {
      // Not a bench failure: the logical instance space (skips included)
      // has outrun trim_keep, the acceptors' retained logs no longer
      // reach instance 0, and a cold start has nothing to replay from.
      // This is the outcome the snapshot rows above exist to avoid.
      any_log_gone = true;
      std::printf("%-10s %8llu %8s | %11s %10s %7s | %10.0f %10s | %3s\n",
                  r.mode, static_cast<unsigned long long>(r.log_len), "-",
                  "log gone*", "-", "-", r.ref_rate_steady, "-", "n/a");
    } else {
      std::printf("%-10s %8llu %8s | %11.1f %10llu %7llu | %10.0f %10.0f | %3s\n",
                  r.mode, static_cast<unsigned long long>(r.log_len), "-",
                  r.recovery_ms, static_cast<unsigned long long>(r.reapplied),
                  static_cast<unsigned long long>(r.chunks), r.ref_rate_steady,
                  r.ref_rate_dip, r.ok ? "yes" : "NO");
      all_ok = all_ok && r.ok;
    }
  }

  std::printf("\nExpected shape: snapshot-mode recover_ms and reapplied stay\n"
              "roughly constant across L (the transfer moves a fixed-size app\n"
              "snapshot and the learner resumes at the cut), while log-replay\n"
              "reapplied equals the full backlog and its recover_ms grows\n"
              "with L. The serving peer checkpoints at its next merge turn\n"
              "boundary when asked, so the coordinator's snapshot interval\n"
              "does not set the suffix the recovered learner streams.\n");
  if (any_log_gone) {
    std::printf("\n* log gone: by crash time the ring's logical instance ids\n"
                "  (skip instances included) had outrun the acceptors'\n"
                "  trim_keep retention, so the log no longer reaches instance\n"
                "  0 and cold-start replay is impossible — not merely slow.\n"
                "  Snapshot recovery at the same L still completes because\n"
                "  frontier-gated trimming retains everything above the\n"
                "  stable checkpoint frontier.\n");
  }
  return all_ok ? 0 : 1;
}
