// RecoverableLearner: a MergeLearner host that participates in the
// checkpoint & recovery subsystem (docs/RECOVERY.md).
//
// Three duties on top of plain merge-learning:
//  - Checkpoint agent: when the CheckpointCoordinator requests an epoch,
//    the next merge turn boundary snapshots the cut (per-ring resume
//    instances + pending skips + delivery count) together with the
//    application state, persists it through SnapshotPersistence, and —
//    only once durable — reports the cut's frontiers back to the
//    coordinator. Reporting before durability could advance the stable
//    frontier past state we would lose in a crash.
//  - Snapshot server: answers SnapshotRequest from recovering peers with
//    a chunked transfer (SnapshotChunk* + SnapshotDone trailer) through
//    the shared ServeSnapshot (recovery_manager.h).
//  - Recovery client: with `recover_on_start`, the learner stays dormant
//    (ring traffic dropped) while a RecoveryManager fetches the latest
//    checkpoint from a peer; on completion it restores the application
//    state, positions the merge at the checkpointed cut and goes live —
//    resuming delivery from the checkpoint instead of instance 0. The
//    ring retention needed for the [cut, live) refetch is guaranteed by
//    frontier-gated trimming (ringpaxos::RingConfig::frontier_gated_trim).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
    // checkpoint agent and must be left empty.
    multiring::MergeLearner::Options merge;
    // Application state captured into checkpoints (borrowed; optional —
    // without one, checkpoints carry only the ordering cut).
    Snapshottable* app = nullptr;
    // Durable checkpoint archive (borrowed; optional — without one,
    // checkpoints are "durable" the moment they are taken).
    SnapshotPersistence* persistence = nullptr;
    // Checkpoints retained for serving peers.
    std::size_t store_keep = 2;
    // Where CheckpointReports go. kNoNode = never report (self-driven
    // checkpoints only).
    NodeId coordinator = kNoNode;
    // 0 = coordinator-driven only; otherwise also self-arm a checkpoint
    // every interval (used by deployments without a coordinator).
    Duration self_checkpoint_interval{0};
    // Recovery client: fetch a checkpoint from `fetch.peers` before
    // going live.
    bool recover_on_start = false;
    RecoveryManager::Options fetch;
    // Fired once when a restore completes (before the merge starts):
    // `resume_index` is the absolute delivery index the learner resumes
    // at — deliveries after this call align with a never-crashed
    // learner's stream from that index (the RecoveryOracle contract).
    std::function<void(std::uint64_t resume_index, const Checkpoint&)>
        on_restore;
  };

  explicit RecoverableLearner(Options opts);

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  multiring::MergeLearner& merge() { return *merge_; }
  const multiring::MergeLearner& merge() const { return *merge_; }
  SnapshotStore& store() { return store_; }
  const RecoveryManager& fetcher() const { return fetch_; }
  bool recovering() const { return recovering_; }
  std::uint64_t checkpoints_taken() const { return checkpoints_; }
  std::uint64_t resume_index() const { return resume_index_; }
  std::uint64_t serve_requests() const { return serve_requests_; }

 private:
  void MaybeTakeCheckpoint(Env& env);
  void FinishRecovery(Env& env, Checkpoint cp);

  Options opts_;
  std::unique_ptr<multiring::MergeLearner> merge_;
  SnapshotStore store_;
  RecoveryManager fetch_;
  Env* env_ = nullptr;
  bool recovering_ = false;
  // Highest checkpoint epoch requested but not yet taken (0 = none).
  std::uint64_t pending_epoch_ = 0;
  std::uint64_t last_epoch_ = 0;
  std::uint64_t self_epoch_base_ = 0;  // high base for self-driven epochs
  std::uint64_t checkpoints_ = 0;
  std::uint64_t serve_requests_ = 0;
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
