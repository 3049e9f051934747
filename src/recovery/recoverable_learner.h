// RecoverableLearner: a MergeLearner host that participates in the
// checkpoint & recovery subsystem (docs/RECOVERY.md), and the one
// learner host that moves application state between nodes.
//
// Three duties on top of plain merge-learning:
//  - Checkpoint agent: on a CheckpointCoordinator epoch, or a peer's
//    request, the next merge turn boundary snapshots the cut (per-ring
//    resume instances + pending skips + delivery count) with the
//    application state and persists it. An epoch is reported only once
//    durable: earlier could advance the stable frontier past state a
//    crash would lose.
//  - Snapshot server: answers SnapshotRequest through ServeSnapshot
//    (recovery_manager.h). Id 0 gets a checkpoint taken at the next turn
//    boundary; any other id is the application's handoff under that id
//    (Snapshottable::Handoff) or a stored checkpoint.
//  - Recovery client: fetches a checkpoint from `fetch.peers` with the
//    merge held, checks that the application accepted the state, and
//    resumes the merge at the cut. It fetches with `recover_on_start`
//    and after a gap — a source that fast-forwarded past history the
//    acceptors no longer hold. Nothing past a gap is delivered; with no
//    peer to fetch from, the learner stops for good (fail-stop).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/types.h"
#include "multiring/merge_learner.h"
#include "recovery/checkpoint.h"
#include "recovery/messages.h"
#include "recovery/recovery_manager.h"
#include "recovery/snapshot_store.h"
#include "recovery/snapshottable.h"

namespace mrp::recovery {

class RecoverableLearner final : public Protocol {
 public:
  struct Options {
    // Merge configuration; `merge.on_turn_boundary` is reserved for the
    // checkpoint agent and must be left empty. `merge.on_deliver` sees
    // only deliveries that follow the application's state without a gap.
    multiring::MergeLearner::Options merge;
    // Application state captured into checkpoints (borrowed; optional —
    // without one, checkpoints carry only the ordering cut).
    Snapshottable* app = nullptr;
    // Durable checkpoint archive (borrowed; optional — without one,
    // checkpoints are "durable" the moment they are taken).
    SnapshotPersistence* persistence = nullptr;
    // Where CheckpointReports go. kNoNode = never report.
    NodeId coordinator = kNoNode;
    // Recovery client: fetch a checkpoint from `fetch.peers` before
    // going live. Finding none, a fetch of id 0 cold-starts from
    // instance 0; one pinned to an id (a handoff) fetches again.
    bool recover_on_start = false;
    RecoveryManager::Options fetch;
    // Fired when a restore completes (before delivery resumes):
    // `resume_index` is the absolute delivery index the learner resumes
    // at — deliveries after this call align with a never-crashed
    // learner's stream from that index (the RecoveryOracle contract).
    std::function<void(std::uint64_t resume_index, const Checkpoint&)>
        on_restore;
  };

  explicit RecoverableLearner(Options opts);
  // The merge's callbacks hold `this`.
  RecoverableLearner(const RecoverableLearner&) = delete;
  RecoverableLearner& operator=(const RecoverableLearner&) = delete;

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  multiring::MergeLearner& merge() { return *merge_; }
  const multiring::MergeLearner& merge() const { return *merge_; }
  const RecoveryManager& fetcher() const { return fetch_; }
  // Delivering: neither fetching nor stopped.
  bool live() const { return phase_ == Phase::kLive; }
  bool recovering() const { return phase_ == Phase::kFetching; }
  bool stopped() const { return phase_ == Phase::kStopped; }
  std::uint64_t checkpoints_taken() const {
    return ctr_checkpoints_ ? ctr_checkpoints_->value() : 0;
  }
  std::uint64_t resume_index() const { return resume_index_; }
  std::uint64_t serve_requests() const {
    return ctr_serve_reqs_ ? ctr_serve_reqs_->value() : 0;
  }

 private:
  enum class Phase : std::uint8_t { kLive, kFetching, kStopped };

  // True while live and no source has fast-forwarded since the last
  // check; on a new fast-forward, starts the catch-up fetch (or stops).
  bool Live(Env& env);
  void MaybeTakeCheckpoint(Env& env);
  void StartFetch(Env& env);
  void FinishFetch(Env& env, Checkpoint cp);

  Options opts_;
  std::unique_ptr<multiring::MergeLearner> merge_;
  SnapshotStore store_;
  RecoveryManager fetch_;
  Env* env_ = nullptr;
  Phase phase_ = Phase::kLive;
  // The application has been neither fed nor restored: a cold start
  // from instance 0 is still equivalent to replaying the whole stream.
  bool pristine_ = true;
  // Per source group: the fast_forwarded() count already accounted for.
  std::map<GroupId, InstanceId> seen_fast_forwarded_;
  // Highest checkpoint epoch requested but not yet taken (0 = none).
  std::uint64_t pending_epoch_ = 0;
  std::uint64_t last_epoch_ = 0;
  // Ids of checkpoints taken for peers: far above epochs and plan ids.
  std::uint64_t served_id_ = 1ULL << 48;
  // Id-0 requests waiting for the next turn boundary, one per peer.
  std::vector<std::pair<NodeId, SnapshotRequest>> waiting_;
  std::uint64_t resume_index_ = 0;
  // Outlives-`this` guard for persistence completions: the simulated
  // disk's done callback can fire after a crash replaced this protocol
  // object; callbacks hold a weak_ptr and become no-ops once the owner
  // is gone.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  Counter* ctr_checkpoints_ = nullptr;
  Counter* ctr_checkpoint_bytes_ = nullptr;
  Counter* ctr_reports_tx_ = nullptr;
  Counter* ctr_serve_reqs_ = nullptr;
  Counter* ctr_chunks_tx_ = nullptr;
};

}  // namespace mrp::recovery
