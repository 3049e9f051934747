// Protocol invariant oracles (docs/CHECKING.md). An OracleSuite is wired
// into a deployment through the optional taps the protocol roles expose
// (ProposerConfig::on_submit, MergeLearner Options::on_decide and
// ::on_deliver, ReplicaConfig::on_apply) and continuously asserts the
// paper's safety claims while a chaos-fuzz run executes:
//
//  * agreement      — no two learners decide different values for one
//                     (ring, instance);
//  * skip delivery  — skip instances deliver nothing;
//  * integrity      — every delivered message was proposed by a client;
//  * merge order    — learners sharing group subscriptions deliver the
//                     shared messages in a consistent relative order
//                     (uniform total order, Algorithm 1);
//  * SMR prefix     — replicas of one partition execute command prefixes
//                     of one total order (the KV linearizability feed).
//
// The per-event checks fire inline from the taps; the cross-learner and
// cross-replica checks run in Finish() once the run has quiesced. Every
// tap also folds into a running digest so a replayed run can be verified
// byte-identical to the original (--replay).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "paxos/value.h"
#include "smr/command.h"

namespace mrp::check {

struct Violation {
  std::string oracle;  // "agreement", "skip_delivery", "integrity", ...
  std::string detail;
};

class OracleSuite {
 public:
  // When a registry is given, every violation bumps the
  // "check.oracle.violations" counter on it.
  explicit OracleSuite(MetricsRegistry* metrics = nullptr);

  // ---- Registration (before the run starts) ----
  // A learner and the groups it subscribes to; the returned index is the
  // handle the taps use. Learners registered with identical group sets
  // are checked for agreement on the shared subset like any other pair.
  int RegisterLearner(std::string name, std::vector<GroupId> groups);
  // A replica of `partition`; replicas of one partition are checked for
  // apply-prefix consistency. Replicas that bootstrap from a peer
  // snapshot skip an arbitrary prefix and must not be registered.
  int RegisterReplica(std::string name, GroupId partition);

  // ---- Taps ----
  void OnPropose(const paxos::ClientMsg& msg);
  void OnDecide(int learner, RingId ring, InstanceId instance,
                const paxos::Value& value);
  void OnDeliver(int learner, GroupId group, const paxos::ClientMsg& msg);
  void OnSmrApply(int replica, const smr::Command& cmd);

  // ---- Cross-learner / cross-replica checks; call after quiescence ----
  void Finish();

  // Records an externally-detected violation (liveness, lost acked
  // command, ...) through the same counter/report path as the built-in
  // oracles. The driver uses this for checks that need run-harness state
  // the suite cannot see.
  void Flag(const std::string& oracle, std::string detail) {
    AddViolation(oracle, std::move(detail));
  }
  bool HasViolation(const std::string& oracle) const {
    for (const auto& v : violations_) {
      if (v.oracle == oracle) return true;
    }
    return false;
  }

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  // First violated oracle name ("" when ok) — the shrinker's fixpoint.
  std::string first_oracle() const {
    return violations_.empty() ? std::string() : violations_.front().oracle;
  }
  // Running FNV-1a digest over every tap event in call order. Two runs
  // that executed identically have identical digests.
  std::uint64_t feed_digest() const { return digest_; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t decides() const { return decides_; }
  // Human-readable summary of the recorded violations.
  std::string Report() const;

 private:
  // Message identity: (group, proposer, seq) is unique per submission.
  using MsgKey = std::tuple<GroupId, NodeId, std::uint64_t>;

  void Fold(std::uint64_t v);
  void AddViolation(const std::string& oracle, std::string detail);
  static std::uint64_t ValueDigest(const paxos::Value& value);

  struct LearnerState {
    std::string name;
    std::set<GroupId> groups;
    std::vector<MsgKey> delivered;  // full delivery log, in order
  };
  struct ReplicaState {
    std::string name;
    GroupId partition = 0;
    // Apply log as per-command identity digests, in apply order.
    std::vector<std::uint64_t> applied;
  };

  MetricsRegistry* metrics_ = nullptr;
  Counter* ctr_violations_ = nullptr;

  std::vector<LearnerState> learners_;
  std::vector<ReplicaState> replicas_;
  std::set<MsgKey> proposed_;
  bool any_proposes_ = false;
  // First decided digest per (ring, instance) + the learner that set it.
  std::map<std::pair<RingId, InstanceId>, std::pair<std::uint64_t, int>>
      decided_;

  std::vector<Violation> violations_;
  std::uint64_t digest_ = 1469598103934665603ULL;  // FNV-1a offset basis
  std::uint64_t deliveries_ = 0;
  std::uint64_t decides_ = 0;
  bool finished_ = false;
};

}  // namespace mrp::check
