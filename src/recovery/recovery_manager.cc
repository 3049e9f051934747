#include "recovery/recovery_manager.h"

#include <algorithm>
#include <utility>

#include "common/trace.h"

namespace mrp::recovery {

std::uint32_t ServeSnapshot(Env& env, NodeId to, const SnapshotRequest& req,
                            std::uint64_t id, const Bytes* blob) {
  if (blob == nullptr) {
    env.Send(to, MakeMessage<SnapshotDone>(req.checkpoint_id, 0, 0, 0));
    return 0;
  }
  const std::size_t chunk = kSnapshotChunkBytes;
  const auto total =
      static_cast<std::uint32_t>((blob->size() + chunk - 1) / chunk);
  std::uint32_t end = total;
  if (req.max_chunks != 0 && req.from_chunk + req.max_chunks < total) {
    end = req.from_chunk + req.max_chunks;
  }
  std::uint32_t sent = 0;
  for (std::uint32_t i = req.from_chunk; i < end; ++i, ++sent) {
    const std::size_t lo = static_cast<std::size_t>(i) * chunk;
    const std::size_t hi = std::min(blob->size(), lo + chunk);
    env.Send(to, MakeMessage<SnapshotChunk>(
                     id, i, total,
                     Bytes(blob->begin() + static_cast<std::ptrdiff_t>(lo),
                           blob->begin() + static_cast<std::ptrdiff_t>(hi))));
  }
  // Always trail with Done: it carries total/digest so the requester can
  // detect gaps (from loss) and re-request precisely.
  env.Send(to, MakeMessage<SnapshotDone>(id, total, blob->size(),
                                         Fnv1a(*blob)));
  return sent;
}

void RecoveryManager::Start(Env& env, DoneFn done) {
  done_ = std::move(done);
  if (transfers_ > 0 && !opts_.peers.empty()) {
    // The last transfer ended on this peer; begin at the next.
    peer_idx_ = (peer_idx_ + 1) % opts_.peers.size();
  }
  ++transfers_;
  active_ = true;
  rotations_ = 0;
  ResetTransfer();
  MetricsRegistry& reg = env.metrics();
  ctr_chunks_rx_ = &reg.counter("recovery.mgr.chunks_rx");
  ctr_retries_ = &reg.counter("recovery.mgr.retries");
  ctr_rotations_ = &reg.counter("recovery.mgr.peer_rotations");
  ctr_restores_ = &reg.counter("recovery.mgr.restores");
  ctr_digest_mismatch_ = &reg.counter("recovery.mgr.digest_mismatch");
  if (opts_.peers.empty()) {
    Finish(env, Checkpoint{});
    return;
  }
  TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                     "fetch_start", opts_.peers[peer_idx_]);
  RequestMissing(env);
  ArmRetry(env);
}

std::uint32_t RecoveryManager::FirstGap() const {
  std::uint32_t idx = 0;
  for (const auto& [i, data] : chunks_) {
    (void)data;
    if (i != idx) break;
    ++idx;
  }
  return idx;
}

void RecoveryManager::RequestMissing(Env& env) {
  env.Send(opts_.peers[peer_idx_],
           MakeMessage<SnapshotRequest>(pinned_id_, FirstGap(), opts_.window));
}

void RecoveryManager::ArmRetry(Env& env) {
  // Exponential backoff while stalled; a transfer making progress keeps
  // the base interval.
  const int shift = std::min(stalled_, 3);
  retry_timer_ = env.SetTimer(opts_.retry_interval * (1 << shift), [this, &env] {
    retry_timer_ = kNoTimer;
    if (!active_) return;
    if (chunks_rx_ == progress_mark_) {
      ++stalled_;
      ctr_retries_->Inc();
      if (stalled_ >= opts_.peer_fail_after) {
        RotatePeer(env);
      } else {
        RequestMissing(env);
      }
    } else {
      stalled_ = 0;
    }
    progress_mark_ = chunks_rx_;
    if (active_) ArmRetry(env);
  });
}

void RecoveryManager::ResetTransfer() {
  pinned_id_ = opts_.checkpoint_id;
  total_chunks_ = 0;
  expected_digest_ = 0;
  done_seen_ = false;
  chunks_.clear();
  stalled_ = 0;
}

void RecoveryManager::RotatePeer(Env& env) {
  ++peer_rotations_;
  ++rotations_;
  ctr_rotations_->Inc();
  // Full restart: two peers can hold DIFFERENT checkpoints under the
  // same id (each cuts at its own turn boundary). Chunks must never be
  // mixed across peers.
  ResetTransfer();
  peer_idx_ = (peer_idx_ + 1) % opts_.peers.size();
  if (rotations_ >=
      static_cast<std::uint64_t>(opts_.max_rotations) * opts_.peers.size()) {
    // Every peer exhausted.
    TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                       "fetch_give_up", peer_rotations_);
    Finish(env, Checkpoint{});
    return;
  }
  TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                     "peer_rotate", opts_.peers[peer_idx_]);
  RequestMissing(env);
}

bool RecoveryManager::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  if (const auto* chunk = Cast<SnapshotChunk>(m)) {
    if (!active_ || from != opts_.peers[peer_idx_]) return active_;
    if (pinned_id_ == 0) {
      pinned_id_ = chunk->checkpoint_id;
      total_chunks_ = chunk->total_chunks;
    }
    if (chunk->checkpoint_id != pinned_id_) return true;  // stale stream
    if (chunks_.emplace(chunk->index, chunk->data).second) {
      ++chunks_rx_;
      ctr_chunks_rx_->Inc();
    }
    TryComplete(env);
    return true;
  }
  if (const auto* done = Cast<SnapshotDone>(m)) {
    if (!active_ || from != opts_.peers[peer_idx_]) return active_;
    if (done->total_chunks == 0) {
      // Peer has no (matching) checkpoint; try the next one.
      RotatePeer(env);
      return true;
    }
    if (pinned_id_ != 0 && done->checkpoint_id != pinned_id_) return true;
    pinned_id_ = done->checkpoint_id;
    total_chunks_ = done->total_chunks;
    expected_digest_ = done->digest;
    done_seen_ = true;
    if (chunks_.size() < total_chunks_) {
      // Burst finished with gaps (loss): pull the next window now
      // instead of waiting for the retry timer.
      RequestMissing(env);
    }
    TryComplete(env);
    return true;
  }
  return false;
}

void RecoveryManager::TryComplete(Env& env) {
  if (!done_seen_ || total_chunks_ == 0 || chunks_.size() < total_chunks_) {
    return;
  }
  Bytes blob;
  for (const auto& [i, data] : chunks_) {
    (void)i;
    blob.insert(blob.end(), data.begin(), data.end());
  }
  auto cp = Checkpoint::Decode(blob);
  if (Fnv1a(blob) != expected_digest_ || !cp) {
    ctr_digest_mismatch_->Inc();
    RotatePeer(env);
    return;
  }
  TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                     "fetch_complete", cp->id);
  Finish(env, std::move(*cp));
}

void RecoveryManager::Finish(Env& env, Checkpoint cp) {
  active_ = false;
  if (retry_timer_ != kNoTimer) {
    env.CancelTimer(retry_timer_);
    retry_timer_ = kNoTimer;
  }
  ctr_restores_->Inc();
  if (done_) {
    DoneFn done = std::move(done_);
    done_ = nullptr;
    done(std::move(cp));
  }
}

}  // namespace mrp::recovery
