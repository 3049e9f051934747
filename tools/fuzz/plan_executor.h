// Plan executor (docs/CHECKING.md): the one fault-injected cluster. It
// builds the fuzz deployment a FaultPlan's shape describes, taps the
// protocol invariant oracles (src/check/oracles.h) into every role,
// fires the plan's events, heals, quiesces and reports what the oracles
// saw. mrp_fuzz's sweeps, shrinker and replays, the determinism gate's
// fixed plans (tools/determinism/plans) and chaos_test all run here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/fault_plan.h"
#include "check/oracles.h"
#include "common/types.h"

namespace mrp::fuzz {

struct RunStats {
  bool violated = false;
  std::string first_oracle;
  std::vector<check::Violation> violations;
  std::uint64_t digest = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t session_applies = 0;  // dedup-passing applies (with_smr)
  std::uint64_t local_reads = 0;      // lease-served local reads (with_smr)
  std::uint64_t reconfig_applies = 0;  // stamped applies the split oracle saw
  bool repart_done = false;            // the live split ran to completion
  std::string report;

  bool Has(const std::string& oracle) const {
    for (const auto& v : violations) {
      if (v.oracle == oracle) return true;
    }
    return false;
  }
};

struct RunOptions {
  // Injected agreement bug (0 = none): forwarded to
  // LearnerOptions::test_corrupt_instance on the merge-b learner.
  InstanceId inject_corrupt = 0;
  bool verbose = false;  // log each event to stderr as it fires
  // (ring, instance) whose decide every learner dumps to stderr, for
  // diagnosing an agreement violation from a replay artifact.
  std::optional<std::pair<RingId, InstanceId>> probe;
  // When non-empty, the whole-deployment metrics snapshot is written
  // here at the end of the run (truncating: after a sweep it holds the
  // final run's, like --trace).
  std::string metrics_path;
};

// Executes one plan against a fresh deployment. Fully deterministic in
// (plan, options).
RunStats RunPlan(const check::FaultPlan& plan, const RunOptions& options = {});

}  // namespace mrp::fuzz
