// Checkpoint: one merge-consistent cut of a Multi-Ring Paxos learner
// plus the application state at that cut (docs/RECOVERY.md).
//
// The cut is taken at a MergeLearner turn boundary — the round-robin
// position where the merge has consumed a whole number of turns from
// every group — so the set "every instance below cut[g].next_instance,
// minus cut[g].pending_skip logical skip instances still owed" maps to
// exactly one prefix of the deterministic delivery order. A learner that
// restores the application state and resumes the merge at the cut
// delivers the identical suffix a never-crashed learner delivers
// (enforced by check::RecoveryOracle).
//
// CheckpointCoordinator is the cluster-side driver: it periodically asks
// every recovery-enabled learner for a fresh checkpoint, folds their
// reports into the per-ring stable frontier (the minimum cut over all
// learners, monotone nondecreasing) and advertises it on each ring's
// control channel. Acceptors and FileStorage may only trim below that
// frontier, which is what keeps recovery-by-replay possible for any
// learner whose checkpoint is still the cluster minimum.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/env.h"
#include "common/types.h"
#include "common/wire.h"
#include "multiring/merge_learner.h"
#include "recovery/messages.h"

namespace mrp::recovery {

// FNV-1a digest used to authenticate reassembled snapshot transfers.
std::uint64_t Fnv1a(const Bytes& bytes);

struct Checkpoint {
  std::uint64_t id = 0;               // epoch, or an id taken for a peer
  std::uint64_t delivered_count = 0;  // messages delivered below the cut
  // MergeLearner::CurrentCut() at a turn boundary, ascending group order.
  std::vector<multiring::MergeLearner::CutEntry> cut;
  Bytes app_state;                    // Snapshottable::SnapshotState()

  MRP_WIRE_FIELDS(id, delivered_count, wire::Capped<100'000>(cut), app_state)

  Bytes Encode() const { return wire::Encode(*this); }
  static std::optional<Checkpoint> Decode(const Bytes& bytes) {
    return wire::Decode<Checkpoint>(bytes);
  }

  // The per-ring frontier this checkpoint lets the cluster trim to.
  std::vector<RingFrontier> Frontiers() const;
};

class CheckpointCoordinator final : public Protocol {
 public:
  struct Options {
    // Spacing between checkpoint epochs (CheckpointRequest rounds).
    Duration interval = Millis(250);
    // Recovery-enabled learners expected to report. The stable frontier
    // only advances once every listed learner has reported at least one
    // checkpoint — a crashed learner therefore freezes trimming until
    // it recovers and reports again, which is exactly the retention a
    // recovering learner needs.
    std::vector<NodeId> learners;
    // Ring -> channel the FrontierAdvert for that ring is multicast on
    // (the ring's control channel, so acceptors hear it).
    std::vector<std::pair<RingId, ChannelId>> rings;
  };

  explicit CheckpointCoordinator(Options opts) : opts_(std::move(opts)) {}

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  std::uint64_t epoch() const { return epoch_; }
  // Advertised stable frontier of `ring` (0 until every learner
  // reported).
  InstanceId stable_frontier(RingId ring) const;
  std::uint64_t adverts_sent() const { return adverts_sent_; }

 private:
  void ArmEpochTimer(Env& env);
  void RecomputeStable(Env& env);

  Options opts_;
  std::uint64_t epoch_ = 0;
  // Latest reported cut per learner per ring (only the newest report of
  // each learner counts; reports are monotone per learner).
  std::map<NodeId, std::map<RingId, InstanceId>> latest_;
  std::map<RingId, InstanceId> stable_;
  std::uint64_t adverts_sent_ = 0;

  // Registry instruments (resolved in OnStart). The coordinator only
  // exists in recovery-enabled deployments, so registering these does
  // not perturb default deployments' metrics snapshots.
  Counter* ctr_epochs_ = nullptr;
  Counter* ctr_reports_ = nullptr;
  Counter* ctr_adverts_ = nullptr;
  std::map<RingId, Gauge*> frontier_gauges_;
};

}  // namespace mrp::recovery
