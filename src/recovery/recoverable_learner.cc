#include "recovery/recoverable_learner.h"

#include <algorithm>
#include <utility>

#include "common/trace.h"

namespace mrp::recovery {

RecoverableLearner::RecoverableLearner(Options opts)
    : opts_(std::move(opts)),
      store_(opts_.store_keep, opts_.persistence),
      fetch_(opts_.fetch) {
  // The turn-boundary hook is how the agent learns a merge-consistent
  // cut is takeable; install it before the MergeLearner is built.
  opts_.merge.on_turn_boundary = [this] {
    if (env_ != nullptr) MaybeTakeCheckpoint(*env_);
  };
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

  if (opts_.self_checkpoint_interval.count() > 0) {
    // Self-driven mode for deployments without a coordinator: epochs
    // start in a high band so a later coordinator's epochs never
    // collide with them.
    self_epoch_base_ = 1ULL << 48;
    auto arm = std::make_shared<std::function<void()>>();
    *arm = [this, &env, arm] {
      env.SetTimer(opts_.self_checkpoint_interval, [this, &env, arm] {
        pending_epoch_ = std::max(pending_epoch_, ++self_epoch_base_);
        MaybeTakeCheckpoint(env);
        (*arm)();
      });
    };
    (*arm)();
  }

  // Even with no peers the manager path runs (it completes immediately
  // with an empty checkpoint), so `on_restore` fires on every bootstrap
  // — cold starts included — and hosts see a uniform resume signal.
  if (opts_.recover_on_start) {
    recovering_ = true;
    TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                       "bootstrap_start", opts_.fetch.peers.size());
    fetch_.Start(env, [this, &env](Checkpoint cp) {
      FinishRecovery(env, std::move(cp));
    });
    return;  // dormant: ring traffic is dropped until the restore lands
  }
  merge_->OnStart(env);
}

void RecoverableLearner::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  env_ = &env;
  if (const auto* req = Cast<CheckpointRequest>(m)) {
    // A recovering learner cannot checkpoint; the coordinator keeps our
    // stale frontier, freezing trims — exactly the retention we need.
    if (recovering_) return;
    pending_epoch_ = std::max(pending_epoch_, req->epoch);
    // If the merge is idle AND happens to sit at a boundary, take the
    // checkpoint now — an idle stream produces no further boundary
    // callbacks, and the coordinator would starve.
    MaybeTakeCheckpoint(env);
    return;
  }
  if (const auto* req = Cast<SnapshotRequest>(m)) {
    ++serve_requests_;
    ctr_serve_reqs_->Inc();
    const std::uint64_t id =
        req->checkpoint_id == 0 ? store_.latest_id() : req->checkpoint_id;
    ctr_chunks_tx_->Inc(ServeSnapshot(env, from, *req, id,
                                      store_.Encoded(req->checkpoint_id)));
    return;
  }
  if (recovering_) {
    fetch_.OnMessage(env, from, m);
    return;  // everything else is dropped while dormant
  }
  if (Cast<SnapshotChunk>(m) != nullptr || Cast<SnapshotDone>(m) != nullptr) {
    return;  // stragglers from a finished transfer
  }
  merge_->OnMessage(env, from, m);
}

void RecoverableLearner::MaybeTakeCheckpoint(Env& env) {
  if (recovering_ || pending_epoch_ <= last_epoch_) return;
  if (!merge_->AtTurnBoundary()) return;
  // Messages held by latency compensation are merged but not yet
  // delivered; a cut here would double-count them. Wait for a boundary
  // with an empty hold queue.
  if (merge_->compensation_held() != 0) return;

  const std::uint64_t epoch = pending_epoch_;
  last_epoch_ = epoch;
  pending_epoch_ = 0;

  Checkpoint cp;
  cp.id = epoch;
  cp.delivered_count = merge_->total_delivered();
  for (const auto& e : merge_->CurrentCut()) {
    cp.cut.push_back({e.ring, e.next_instance, e.pending_skip});
  }
  if (opts_.app != nullptr) cp.app_state = opts_.app->SnapshotState();

  ++checkpoints_;
  ctr_checkpoints_->Inc();
  ctr_checkpoint_bytes_->Inc(cp.app_state.size());
  TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                     "checkpoint", epoch);

  // Report only after the persistence backend acknowledges: advancing
  // the trim frontier on the strength of a checkpoint we could lose in
  // a crash would be unsafe. The weak guard makes late disk completions
  // (firing after this protocol object was crash-replaced) no-ops.
  const NodeId coordinator = opts_.coordinator;
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
}

void RecoverableLearner::FinishRecovery(Env& env, Checkpoint cp) {
  recovering_ = false;
  resume_index_ = cp.delivered_count;
  TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "recovery",
                     "restore", cp.id);
  if (cp.id != 0) {
    if (opts_.app != nullptr && !cp.app_state.empty()) {
      opts_.app->RestoreState(cp.app_state);
    }
    std::vector<multiring::MergeLearner::CutEntry> cut;
    cut.reserve(cp.cut.size());
    for (const auto& c : cp.cut) {
      cut.push_back({c.ring, c.next_instance, c.pending_skip});
    }
    merge_->RestoreCut(cut, cp.delivered_count);
    // Adopt the fetched checkpoint so this learner can serve peers and
    // so later epochs (> cp.id) keep the store's ids increasing.
    store_.Restore(cp.Encode());
    last_epoch_ = std::max(last_epoch_, cp.id);
  }
  // Empty checkpoint (every peer exhausted): cold start from instance 0
  // — the pre-recovery behaviour, always safe.
  if (opts_.on_restore) opts_.on_restore(resume_index_, cp);
  merge_->OnStart(env);
}

}  // namespace mrp::recovery
