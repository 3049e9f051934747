// Peer snapshot transfer (docs/RECOVERY.md): the one way state moves
// between nodes — a crashed learner's checkpoint recovery, a late-joining
// replica's bootstrap and a repartition target's handoff.
//
// ServeSnapshot is the push side, shared by every snapshot server.
//
// RecoveryManager is the pull side. A crashed/new node asks a peer for a
// checkpoint (SnapshotRequest: a given id, or 0 for the peer's latest),
// reassembles the indexed SnapshotChunk stream — loss, reordering and
// duplication are all absorbed by keeping a chunk map and re-requesting
// from the first gap — verifies the SnapshotDone digest, and hands the
// decoded Checkpoint to the host so it can restore application state
// (and, for a learner, resume the merge at the cut).
//
// Fault handling: a retry timer re-requests missing chunks with
// exponential backoff; after `peer_fail_after` retries without any
// progress the transfer restarts from scratch against the next peer in
// the list (mid-transfer peer crash). Peers that answer "no checkpoint
// available" (SnapshotDone{total_chunks=0}) also rotate. If every peer
// is exhausted the manager completes with an EMPTY checkpoint, and the
// host decides (recoverable_learner.h): cold-start from instance 0, or
// fetch again later.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/env.h"
#include "recovery/checkpoint.h"
#include "recovery/messages.h"

namespace mrp::recovery {

// Checkpoint bytes per SnapshotChunk; a chunk frame stays far below the
// UDP transport's 60 kB frame limit.
inline constexpr std::size_t kSnapshotChunkBytes = 4096;

// Answers `req` from `to`: chunks [from_chunk, from_chunk + max_chunks)
// of `blob`, the encoded checkpoint `id`, then a SnapshotDone trailer
// with the total and digest the requester needs to find gaps and verify
// the reassembly. A null `blob` (nothing servable under the requested
// id) is answered with SnapshotDone{total_chunks = 0}. Returns the number
// of chunks sent.
std::uint32_t ServeSnapshot(Env& env, NodeId to, const SnapshotRequest& req,
                            std::uint64_t id, const Bytes* blob);

class RecoveryManager {
 public:
  struct Options {
    // Peer learners able to serve snapshots, tried in order.
    std::vector<NodeId> peers;
    // Base retry delay; doubles per stalled retry up to 8x.
    Duration retry_interval = Millis(25);
    // Chunks requested per SnapshotRequest (flow-control window).
    std::uint32_t window = 16;
    // Stalled retries against one peer before rotating to the next.
    int peer_fail_after = 4;
    // Full rotations over the peer list before giving up and completing
    // with an empty checkpoint.
    int max_rotations = 3;
    // 0 asks each peer for a checkpoint of its current state; any other
    // id is fetched as that id or not at all.
    std::uint64_t checkpoint_id = 0;
  };

  using DoneFn = std::function<void(Checkpoint)>;

  explicit RecoveryManager(Options opts) : opts_(std::move(opts)) {}

  // Begins a transfer; `done` fires exactly once. Once it has, Start
  // may be called again: that transfer begins at the next peer.
  void Start(Env& env, DoneFn done);

  // Feeds SnapshotChunk / SnapshotDone messages; returns true if the
  // message belonged to this transfer.
  bool OnMessage(Env& env, NodeId from, const MessagePtr& m);

  std::uint64_t peer_rotations() const { return peer_rotations_; }
  std::uint64_t chunks_received() const { return chunks_rx_; }

 private:
  void RequestMissing(Env& env);
  void ArmRetry(Env& env);
  void ResetTransfer();
  void RotatePeer(Env& env);
  void TryComplete(Env& env);
  void Finish(Env& env, Checkpoint cp);
  std::uint32_t FirstGap() const;

  Options opts_;
  DoneFn done_;
  bool active_ = false;

  std::uint64_t transfers_ = 0;  // Start calls
  std::size_t peer_idx_ = 0;
  std::uint64_t rotations_ = 0;  // in the current transfer
  int stalled_ = 0;

  // Options::checkpoint_id, or for an id-0 fetch 0 until the first chunk
  // pins the peer's id.
  std::uint64_t pinned_id_ = 0;
  std::uint32_t total_chunks_ = 0;
  std::uint64_t expected_digest_ = 0;
  bool done_seen_ = false;
  std::map<std::uint32_t, Bytes> chunks_;
  std::uint64_t progress_mark_ = 0;  // chunks_rx_ at the last retry

  TimerId retry_timer_ = kNoTimer;

  std::uint64_t peer_rotations_ = 0;
  std::uint64_t chunks_rx_ = 0;

  // Lazy instruments (the manager lives on recovery-enabled nodes only).
  Counter* ctr_chunks_rx_ = nullptr;
  Counter* ctr_retries_ = nullptr;
  Counter* ctr_rotations_ = nullptr;
  Counter* ctr_restores_ = nullptr;
  Counter* ctr_digest_mismatch_ = nullptr;
};

}  // namespace mrp::recovery
