// Fault schedules for the plan executor (tools/fuzz/plan_executor.h,
// docs/CHECKING.md). From a single seed GeneratePlan draws a timed
// sequence of self-healing fault events — crash/restart, inter-site
// partition/heal, message-loss bursts, disk stalls, coordinator kills,
// learner crashes, session and reconfiguration faults — against a
// configurable budget ("never lose an acceptor majority, liveness
// asserted" vs. "anything goes, safety only"). Scripted plans (the
// determinism gate's, chaos_test's) are written out event by event.
// Every event carries its own duration so the plan is a flat list the
// shrinker can drop events from one at a time, and plans round-trip
// through JSON so a failing (seed, plan) pair is a self-contained replay
// artifact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace mrp::check {

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash = 0,      // pause ring/member for duration, then revive
    kPartition = 1,  // cut the site_a<->site_b link, then heal
    kLossBurst = 2,  // raise global loss to `loss`, then restore
    kDiskStall = 3,  // stall ring/member's disk for duration
    kCoordKill = 4,  // pause ring's CURRENT coordinator (resolved when
                     // the event fires), then revive it
    kLearnerCrash = 5,  // crash a recovery-enabled learner with state
                        // loss; at heal time it bootstraps from a peer
                        // snapshot (docs/RECOVERY.md)
    // Client-side events (docs/SESSIONS.md); drawn only for with_smr
    // shapes, where the driver runs a session client and lease grantor.
    kDuplicateSubmit = 6,  // client re-submits its last command verbatim
    kRetryStorm = 7,       // client re-sends every pending request 3x
    kSessionAbandon = 8,   // client abandons its session and reopens
    kLeaseDrop = 9,        // pause the lease grantor for duration, so
                           // leases expire and reads fall back to the
                           // ring; resume re-grants under a new epoch
    // Reconfiguration events (docs/RECONFIG.md); drawn only for with_smr
    // shapes with >= 2 rings, where the driver runs a repartition stack.
    kSplitLive = 10,        // kick off a live key-range split at `at`
    kResubscribeStorm = 11, // an observer merge learner unsubscribes a
                            // group and resubscribes it at the next
                            // turn boundary, repeatedly for duration
    kReconfigCoordKill = 12,  // pause the repartition coordinator for
                              // duration mid-plan, then revive it
    // Scripted plans only (GeneratePlan never draws it).
    kLearnerPause = 13,  // pause the merge-b learner for duration with
                         // its state intact; it catches up on resume
  };

  Kind kind = Kind::kCrash;
  TimePoint at{0};
  Duration duration{0};
  int ring = 0;    // kCrash / kDiskStall / kCoordKill
  int member = 0;  // kCrash / kDiskStall (universe index)
  int site_a = 0;  // kPartition
  int site_b = 0;  // kPartition
  double loss = 0.0;  // kLossBurst

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

const char* KindName(FaultEvent::Kind kind);

// Client-side session and reconfiguration kinds need a with_smr shape.
inline bool IsSmrKind(FaultEvent::Kind kind) {
  return kind >= FaultEvent::Kind::kDuplicateSubmit &&
         kind <= FaultEvent::Kind::kReconfigCoordKill;
}
// Reconfiguration kinds additionally need a second ring.
inline bool IsReconfigKind(FaultEvent::Kind kind) {
  return kind >= FaultEvent::Kind::kSplitLive &&
         kind <= FaultEvent::Kind::kReconfigCoordKill;
}

struct FaultBudget {
  // Keep a majority of every ring's acceptor universe up at all times
  // (crashes and coordinator kills count; disk stalls do not pause the
  // node and are not counted). Reconfiguration onto spares can then
  // always restore service, so liveness may be asserted at the end.
  bool preserve_majority = true;
  bool assert_liveness = true;
  std::size_t max_events = 12;
  Duration horizon = Seconds(4);     // faults drawn in [5%, 80%] of this
  Duration max_fault = Millis(1200); // per-event duration cap
  double max_loss = 0.10;            // loss-burst cap

  // The "anything goes" budget: concurrent crashes may rob rings of
  // their majorities, loss bursts run hot, and the driver asserts only
  // safety (the oracles), never progress.
  static FaultBudget AnythingGoes() {
    FaultBudget b;
    b.preserve_majority = false;
    b.assert_liveness = false;
    b.max_events = 20;
    b.max_loss = 0.40;
    return b;
  }

  friend bool operator==(const FaultBudget&, const FaultBudget&) = default;
};

// Shape of the deployment a plan runs against; generation needs it to
// draw valid targets, and replay needs it to rebuild the same cluster.
struct DeploymentShape {
  int n_rings = 2;
  int ring_size = 2;
  int n_spares = 1;
  int n_sites = 2;      // >= 2 enables partition events
  bool with_smr = false;  // partition-0 KV replicas + client
  // One open-loop WorkloadDriver (the multi-tenant mix) over every ring
  // instead of the closed-loop proposers.
  bool workload = false;

  int universe() const { return ring_size + n_spares; }

  friend bool operator==(const DeploymentShape&, const DeploymentShape&) =
      default;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  DeploymentShape shape;
  FaultBudget budget;
  std::vector<FaultEvent> events;  // sorted by `at`

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

// Draws a plan from the seed. Deterministic: equal arguments give equal
// plans on every platform.
FaultPlan GeneratePlan(std::uint64_t seed, const DeploymentShape& shape,
                       const FaultBudget& budget);

std::string ToJson(const FaultPlan& plan);
std::optional<FaultPlan> ParsePlan(const std::string& json);

// Self-contained replay artifact written when a run violates an oracle:
// the (shrunk) plan plus what went wrong, so --replay can verify it
// reproduces the identical failure.
struct ReplayArtifact {
  FaultPlan plan;
  std::string violated_oracle;     // first violated oracle ("" = liveness)
  std::uint64_t feed_digest = 0;   // OracleSuite::feed_digest() of the run
  // Injected-bug hook used by --self-check (0 = none): forwarded to
  // LearnerOptions::test_corrupt_instance on one learner.
  InstanceId inject_corrupt_instance = 0;

  friend bool operator==(const ReplayArtifact&, const ReplayArtifact&) =
      default;
};

std::string ToJson(const ReplayArtifact& artifact);
std::optional<ReplayArtifact> ParseArtifact(const std::string& json);

}  // namespace mrp::check
