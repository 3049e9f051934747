#include "recovery/recoverable_learner.h"

#include <algorithm>
#include <utility>

#include "common/trace.h"

namespace mrp::recovery {

RecoverableLearner::RecoverableLearner(Options opts)
    : opts_(std::move(opts)),
      store_(2, opts_.persistence),
      fetch_(opts_.fetch),
      phase_(opts_.recover_on_start ? Phase::kFetching : Phase::kLive) {
  // The turn-boundary hook is how the agent learns a merge-consistent
  // cut is takeable; install it before the MergeLearner is built.
  opts_.merge.on_turn_boundary = [this] {
    if (env_ != nullptr) MaybeTakeCheckpoint(*env_);
  };
  // Deliveries reach the application only while its state and the
  // merge position agree: never while fetching, never past a gap.
  if (opts_.merge.on_deliver) {
    opts_.merge.on_deliver = [this, deliver = std::move(opts_.merge.on_deliver)](
                                 GroupId g, const paxos::ClientMsg& msg) {
      if (env_ != nullptr && Live(*env_)) deliver(g, msg);
    };
  }
  merge_ = std::make_unique<multiring::MergeLearner>(std::move(opts_.merge));
}

void RecoverableLearner::OnStart(Env& env) {
  env_ = &env;
  // Instruments only exist on recovery-enabled learners, which default
  // deployments never create — metrics snapshots stay byte-identical.
  MetricsRegistry& reg = env.metrics();
  ctr_checkpoints_ = &reg.counter("recovery.checkpoints");
  ctr_checkpoint_bytes_ = &reg.counter("recovery.checkpoint_bytes");
  ctr_reports_tx_ = &reg.counter("recovery.reports_tx");
  ctr_serve_reqs_ = &reg.counter("recovery.serve_reqs");
  ctr_chunks_tx_ = &reg.counter("recovery.chunks_tx");

  merge_->Hold(phase_ == Phase::kFetching);
  merge_->OnStart(env);
  if (phase_ == Phase::kFetching) {
    TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                       "bootstrap_start", opts_.fetch.peers.size());
    StartFetch(env);
  } else {
    pristine_ = false;
  }
}

void RecoverableLearner::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  env_ = &env;
  switch (m->tag()) {
    case CheckpointRequest::kTag: {
      // A learner that is not live cannot checkpoint; the coordinator
      // keeps our stale frontier, freezing trims: the retention we need.
      if (!Live(env)) return;
      const auto* req = static_cast<const CheckpointRequest*>(m.get());
      pending_epoch_ = std::max(pending_epoch_, req->epoch);
      // If the merge is idle AND happens to sit at a boundary, take the
      // checkpoint now — an idle stream produces no further boundary
      // callbacks, and the coordinator would starve.
      MaybeTakeCheckpoint(env);
      return;
    }
    case SnapshotRequest::kTag: {
      const auto* req = static_cast<const SnapshotRequest*>(m.get());
      ctr_serve_reqs_->Inc();
      const std::uint64_t id = req->checkpoint_id;
      if (id == 0 && Live(env)) {
        // Answered at the next turn boundary with a checkpoint of that
        // cut. A retried request replaces the peer's earlier one.
        std::erase_if(waiting_, [from](const auto& w) { return w.first == from; });
        waiting_.emplace_back(from, *req);
        MaybeTakeCheckpoint(env);
        return;
      }
      // A handoff or a stored checkpoint. A learner that is not live has
      // no consistent state to give: id 0 is "unavailable".
      const Bytes* blob = nullptr;
      if (id != 0 && opts_.app != nullptr) blob = opts_.app->Handoff(id);
      if (id != 0 && blob == nullptr) blob = store_.Encoded(id);
      ctr_chunks_tx_->Inc(ServeSnapshot(env, from, *req, id, blob));
      return;
    }
    case SnapshotChunk::kTag:
    case SnapshotDone::kTag:
      fetch_.OnMessage(env, from, m);  // stragglers of a finished transfer
      return;                          // are ignored by the manager
    default:
      merge_->OnMessage(env, from, m);
      Live(env);  // notice a fast-forward even when nothing was delivered
  }
}

bool RecoverableLearner::Live(Env& env) {
  if (phase_ != Phase::kLive) return false;
  bool gap = false;
  for (std::size_t i = 0; i < merge_->group_count(); ++i) {
    const paxos::GroupSource& src = *merge_->group_source(i);
    InstanceId& seen = seen_fast_forwarded_[src.group()];
    if (src.fast_forwarded() != seen) {
      seen = src.fast_forwarded();
      gap = true;
    }
  }
  if (!gap) return true;
  // A source skipped history no acceptor holds any more: whatever the
  // merge yields next follows a hole. Only a peer's checkpoint closes it.
  Counter& gaps = env.metrics().counter("recovery.gaps");
  gaps.Inc();
  TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                     "gap", gaps.value());
  // A fetch pinned to one id (a repartition handoff) names peers that
  // serve another partition: none of them holds this learner's state.
  if (opts_.fetch.peers.empty() || opts_.fetch.checkpoint_id != 0) {
    phase_ = Phase::kStopped;
    env.metrics().counter("recovery.fail_stops").Inc();
    TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                       "fail_stop", gaps.value());
    return false;
  }
  phase_ = Phase::kFetching;
  merge_->Hold(true);
  StartFetch(env);
  return false;
}

void RecoverableLearner::MaybeTakeCheckpoint(Env& env) {
  if (pending_epoch_ <= last_epoch_ && waiting_.empty()) return;
  if (!Live(env) || !merge_->AtTurnBoundary()) return;
  // Messages held by latency compensation are merged but not yet
  // delivered; a cut here would double-count them. Wait for a boundary
  // with an empty hold queue.
  if (merge_->compensation_held() != 0) return;

  const bool epoch_due = pending_epoch_ > last_epoch_;
  if (epoch_due) last_epoch_ = std::exchange(pending_epoch_, 0);

  Checkpoint cp;
  cp.id = epoch_due ? last_epoch_ : ++served_id_;
  cp.delivered_count = merge_->total_delivered();
  cp.cut = merge_->CurrentCut();
  if (opts_.app != nullptr) cp.app_state = opts_.app->SnapshotState();

  ctr_checkpoints_->Inc();
  ctr_checkpoint_bytes_->Inc(cp.app_state.size());
  TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                     "checkpoint", cp.id);

  // Report only after the persistence backend acknowledges: advancing
  // the trim frontier on the strength of a checkpoint we could lose in
  // a crash would be unsafe. The weak guard makes late disk completions
  // (firing after this protocol object was crash-replaced) no-ops.
  const NodeId coordinator = epoch_due ? opts_.coordinator : kNoNode;
  const std::uint64_t epoch = cp.id;
  std::vector<RingFrontier> frontiers = cp.Frontiers();
  std::weak_ptr<bool> alive = alive_;
  store_.Put(cp, [this, &env, coordinator, epoch,
                  frontiers = std::move(frontiers), alive] {
    auto guard = alive.lock();
    if (!guard || !*guard) return;
    if (coordinator == kNoNode) return;
    env.Send(coordinator, MakeMessage<CheckpointReport>(
                              epoch, epoch, std::move(frontiers)));
    ctr_reports_tx_->Inc();
  });
  // A peer only needs a consistent cut, not a durable one: serve now.
  for (const auto& [to, req] : waiting_) {
    ctr_chunks_tx_->Inc(ServeSnapshot(env, to, req, cp.id,
                                      store_.Encoded(cp.id)));
  }
  waiting_.clear();
}

void RecoverableLearner::StartFetch(Env& env) {
  fetch_.Start(env, [this, &env](Checkpoint cp) {
    FinishFetch(env, std::move(cp));
  });
}

void RecoverableLearner::FinishFetch(Env& env, Checkpoint cp) {
  // An empty checkpoint means no peer had one. If nothing touched the
  // application yet, a cold start from instance 0 replays the stream (a
  // trimmed history shows up as a gap); otherwise, as when the
  // application refuses the state, the fetch failed.
  const bool cold_start =
      cp.id == 0 && pristine_ && opts_.fetch.checkpoint_id == 0;
  bool restored = cp.id != 0;
  if (restored && opts_.app != nullptr) {
    pristine_ = false;
    restored = opts_.app->RestoreState(cp.app_state);
  }
  if (!cold_start && !restored) {
    // Pause, so peers with nothing to give (a source before its seal)
    // are not polled at round-trip speed; the next fetch starts at the
    // next peer.
    TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                       "fetch_failed", cp.id);
    env.SetTimer(opts_.fetch.retry_interval * 4,
                 [this, &env] { StartFetch(env); });
    return;
  }
  pristine_ = false;
  resume_index_ = cp.delivered_count;
  TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                     "restore", cp.id);
  merge_->RestoreCut(cp.cut, cp.delivered_count);
  // A source the cut moved resumes there, so what it skipped before is
  // no gap; a fast-forward of any other source (a handoff carries no
  // cut for the target's ring) still is.
  for (std::size_t i = 0; i < merge_->group_count(); ++i) {
    const paxos::GroupSource& src = *merge_->group_source(i);
    for (const auto& c : cp.cut) {
      if (c.ring == src.ack_ring()) {
        seen_fast_forwarded_[src.group()] = src.fast_forwarded();
      }
    }
  }
  phase_ = Phase::kLive;
  merge_->Hold(false);
  if (opts_.on_restore) opts_.on_restore(resume_index_, cp);
}

}  // namespace mrp::recovery
