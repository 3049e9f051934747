#include "smr/replica.h"

#include <algorithm>

#include "reconfig/messages.h"

namespace mrp::smr {

Replica::Replica(ReplicaConfig cfg)
    : cfg_(std::move(cfg)), sessions_(cfg_.session_response_cache) {
  multiring::MergeLearner::Options opts;
  opts.m = cfg_.m;
  opts.groups.push_back(cfg_.partition_ring);
  if (cfg_.all_ring) opts.groups.push_back(*cfg_.all_ring);
  opts.on_deliver = [this](GroupId g, const paxos::ClientMsg& msg) {
    Apply(*env_, g, msg);
  };
  merge_ = std::make_unique<multiring::MergeLearner>(std::move(opts));
}

void Replica::OnStart(Env& env) {
  env_ = &env;
  bootstrapped_ = !cfg_.bootstrap_from_peer && cfg_.handoff_plan == 0;
  if (cfg_.sessions) {
    ctr_dups_ = &env.metrics().counter("smr.replica.session_dups");
  }
  if (cfg_.serve_local_reads) {
    ctr_local_reads_ = &env.metrics().counter("smr.replica.local_reads");
    ctr_read_fallbacks_ = &env.metrics().counter("smr.replica.read_fallbacks");
  }
  merge_->OnStart(env);
  // The snapshot is requested lazily, on the first delivery: only then
  // is the merge stream's start position fixed, which guarantees the
  // peer's snapshot covers everything before it. A repartition target
  // instead pulls the sealed handoff right away — its content is fixed
  // by the seal position in the *source* stream, not by ours.
  if (cfg_.handoff_plan != 0) StartHandoffFetch(env);
}

void Replica::RequestSnapshot(Env& env) {
  if (bootstrapped_ || cfg_.peers.empty()) {
    bootstrapped_ = true;
    return;
  }
  const NodeId peer = cfg_.peers[static_cast<std::size_t>(
      env.rng().below(cfg_.peers.size()))];
  env.Send(peer, MakeMessage<SnapshotReq>(cfg_.partition));
  env.SetTimer(cfg_.snapshot_retry, [this, &env] { RequestSnapshot(env); });
}

void Replica::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  env_ = &env;
  switch (m->tag()) {
    case SnapshotReq::kTag: {
      const auto* req = static_cast<const SnapshotReq*>(m.get());
      if (req->partition == cfg_.partition && bootstrapped_) {
        const auto [lo, hi] = cfg_.range;
        env.Send(from, MakeMessage<SnapshotRep>(cfg_.partition, applied_,
                                                store_.Query(lo, hi)));
      }
      return;
    }
    case SnapshotRep::kTag: {
      const auto* rep = static_cast<const SnapshotRep*>(m.get());
      if (rep->partition == cfg_.partition && !bootstrapped_) {
        for (const auto& [k, v] : rep->rows) store_.Insert(k, v);
        bootstrapped_ = true;
        // Replay the deliveries that arrived while the snapshot was in
        // flight (idempotent overlap with the snapshot).
        auto pending = std::move(pending_applies_);
        pending_applies_.clear();
        for (const auto& cmd : pending) Execute(env, cmd);
      }
      return;
    }
    case recovery::SnapshotRequest::kTag: {
      const auto* req = static_cast<const recovery::SnapshotRequest*>(m.get());
      ServeHandoff(env, from, *req);
      return;
    }
    case recovery::SnapshotChunk::kTag:
    case recovery::SnapshotDone::kTag:
      if (handoff_fetch_ != nullptr) handoff_fetch_->OnMessage(env, from, m);
      return;
    case reconfig::HandoffRequest::kTag: {
      const auto* probe = static_cast<const reconfig::HandoffRequest*>(m.get());
      // Coordinator completion probe: answered once the handoff with that
      // plan id is installed (idempotent — probes are retried until the
      // PlanStatus gets through).
      if (probe->plan_id == cfg_.handoff_plan) {
        env.Send(from, MakeMessage<reconfig::PlanStatus>(probe->plan_id,
                                                         bootstrapped_));
      }
      return;
    }
    case session::LeaseGrant::kTag: {
      const auto* grant = static_cast<const session::LeaseGrant*>(m.get());
      if (cfg_.serve_local_reads && grant->group == cfg_.partition &&
          grant->holder == env.self() && grant->epoch >= lease_epoch_) {
        lease_epoch_ = grant->epoch;
        lease_expires_ = grant->expires_at;
        lease_grant_point_ = grant->grant_point;
        env.Send(from, MakeMessage<session::LeaseAck>(cfg_.partition,
                                                      grant->epoch));
      }
      return;
    }
    case session::LeaseRevoke::kTag: {
      const auto* revoke = static_cast<const session::LeaseRevoke*>(m.get());
      if (revoke->group == cfg_.partition && revoke->epoch >= lease_epoch_) {
        lease_epoch_ = revoke->epoch;
        lease_expires_ = TimePoint{0};
      }
      return;
    }
    case session::SessionRead::kTag: {
      const auto* read = static_cast<const session::SessionRead*>(m.get());
      if (!cfg_.serve_local_reads) {
        if (ctr_read_fallbacks_) ctr_read_fallbacks_->Inc();
        env.Send(from, MakeMessage<session::SessionReadRep>(
                           read->req_id, cfg_.partition,
                           session::SessionReadRep::kNoLease));
        return;
      }
      const ReadKey key{from, read->req_id};
      pending_reads_[key] = PendingRead{from, read->req_id, read->kmin,
                                        read->kmax};
      TryServeRead(env, key);
      return;
    }
    default:
      merge_->OnMessage(env, from, m);
  }
}

// A local read is linearizable only if the lease window is open AND the
// applied frontier covers the grant point: every command decided before
// the grant is applied here, and no other replica can hold the lease.
// Until the frontier catches up the read waits; once the lease lapses it
// fails over to the through-the-ring path (docs/SESSIONS.md).
void Replica::TryServeRead(Env& env, ReadKey key) {
  auto it = pending_reads_.find(key);
  if (it == pending_reads_.end()) return;
  const PendingRead pr = it->second;
  const bool lease_valid = LeaseValid(env.now());
  if (!lease_valid) {
    pending_reads_.erase(it);
    if (ctr_read_fallbacks_) ctr_read_fallbacks_->Inc();
    env.Send(pr.from, MakeMessage<session::SessionReadRep>(
                          pr.req_id, cfg_.partition,
                          session::SessionReadRep::kNoLease));
    return;
  }
  const InstanceId frontier = ApplyFrontier();
  if (frontier < lease_grant_point_) {
    env.SetTimer(cfg_.read_recheck, [this, &env, key] {
      TryServeRead(env, key);
    });
    return;
  }
  pending_reads_.erase(it);
  ++local_reads_served_;
  if (ctr_local_reads_) ctr_local_reads_->Inc();
  if (cfg_.on_local_read) {
    cfg_.on_local_read(lease_epoch_, lease_valid, lease_grant_point_,
                       frontier);
  }
  const auto [lo, hi] = cfg_.range;
  const Key qlo = std::max(pr.kmin, lo);
  const Key qhi = std::min(pr.kmax, hi);
  std::vector<std::pair<Key, std::string>> rows;
  if (qlo <= qhi) rows = store_.Query(qlo, qhi, cfg_.query_row_limit);
  env.Send(pr.from, MakeMessage<session::SessionReadRep>(
                        pr.req_id, cfg_.partition,
                        session::SessionReadRep::kOk, std::move(rows)));
}

void Replica::Apply(Env& env, GroupId /*group*/, const paxos::ClientMsg& msg) {
  if (!cfg_.execute) {
    ++discarded_;  // dummy service: delivery only
    return;
  }
  auto cmd = Command::Decode(msg.payload);
  if (!cmd) {
    ++discarded_;
    return;
  }
  if (!bootstrapped_) {
    // Stream is live but the bootstrap snapshot has not been installed
    // yet: buffer, and kick off the snapshot request now that the
    // stream's start position is fixed.
    pending_applies_.push_back(std::move(*cmd));
    // Handoff targets already have their pull in flight; only the peer
    // bootstrap path requests lazily here.
    if (!snapshot_requested_ && cfg_.handoff_plan == 0) {
      snapshot_requested_ = true;
      RequestSnapshot(env);
    }
    return;
  }
  Execute(env, *cmd);
}

void Replica::Respond(Env& env, const Command& cmd, bool ok,
                      std::vector<std::pair<Key, std::string>> rows,
                      GroupId redirect) {
  if (cfg_.respond && cmd.client != kNoNode) {
    env.Send(cmd.client, MakeMessage<Response>(cmd.req_id, cfg_.partition, ok,
                                               std::move(rows), redirect));
  }
}

void Replica::Execute(Env& env, const Command& cmd) {
  // Session lifecycle and dedup run before the oracle tap: a suppressed
  // duplicate is, by definition, not an apply (docs/SESSIONS.md).
  if (cfg_.sessions && cmd.session_id != 0) {
    if (cmd.op == Command::Op::kSessionOpen) {
      sessions_.Open(cmd.session_id);
      ++applied_;
      if (cfg_.on_apply) cfg_.on_apply(cmd);
      Respond(env, cmd, true, {});
      return;
    }
    if (cmd.op == Command::Op::kSessionClose) {
      sessions_.Close(cmd.session_id);
      ++applied_;
      if (cfg_.on_apply) cfg_.on_apply(cmd);
      Respond(env, cmd, true, {});
      return;
    }
    switch (sessions_.Check(cmd.session_id, cmd.session_seq)) {
      case session::SessionTable::Admit::kDuplicate: {
        ++dup_suppressed_;
        if (ctr_dups_) ctr_dups_->Inc();
        // Re-send the cached response; past the cache, a bare ok (exact
        // for writes, degraded-but-safe for evicted queries).
        const auto* cached =
            sessions_.Response(cmd.session_id, cmd.session_seq);
        Respond(env, cmd, cached == nullptr || cached->ok,
                cached != nullptr ? cached->rows
                                  : std::vector<std::pair<Key, std::string>>{});
        return;
      }
      case session::SessionTable::Admit::kUnknown:
        // Session never opened here or already closed: refuse rather
        // than apply outside the session's agreed lifetime.
        ++discarded_;
        Respond(env, cmd, false, {});
        return;
      case session::SessionTable::Admit::kApply:
        break;
    }
  }
  if (cmd.op == Command::Op::kSeal) {
    ExecuteSeal(env, cmd);
    return;
  }
  // Sealed-range redirect (docs/RECONFIG.md): runs after dedup (a
  // retried, already-applied command still gets its cached reply) and
  // before the apply tap — a redirected command is not an apply and the
  // session table does not record it, so it applies exactly once, on
  // the range's new owner.
  if (!sealed_.empty() && (cmd.op == Command::Op::kInsert ||
                           cmd.op == Command::Op::kDelete)) {
    for (const auto& [id, s] : sealed_) {
      if (cmd.key < s.lo || cmd.key > s.hi) continue;
      ++redirected_;
      if (ctr_redirects_ == nullptr) {
        ctr_redirects_ = &env.metrics().counter("smr.replica.redirects");
      }
      ctr_redirects_->Inc();
      Respond(env, cmd, false, {}, s.target);
      return;
    }
  }
  if (cfg_.on_apply) cfg_.on_apply(cmd);
  const auto [lo, hi] = cfg_.range;
  bool ok = true;
  std::vector<std::pair<Key, std::string>> rows;
  switch (cmd.op) {
    case Command::Op::kInsert:
      if (cmd.key < lo || cmd.key > hi) {
        ++discarded_;
        return;
      }
      store_.Insert(cmd.key, cmd.value);
      break;
    case Command::Op::kDelete:
      if (cmd.key < lo || cmd.key > hi) {
        ++discarded_;
        return;
      }
      ok = store_.Delete(cmd.key);
      break;
    case Command::Op::kQuery: {
      // Answer the overlap of [kmin, kmax] with this partition's range;
      // discard if disjoint (the paper's selective execution).
      const Key qlo = std::max(cmd.kmin, lo);
      const Key qhi = std::min(cmd.kmax, hi);
      if (qlo > qhi) {
        ++discarded_;
        return;
      }
      rows = store_.Query(qlo, qhi, cfg_.query_row_limit);
      break;
    }
    case Command::Op::kSessionOpen:
    case Command::Op::kSessionClose:
      // Sessions disabled (or unstamped): lifecycle ops are no-ops that
      // still acknowledge, so a client never stalls on them.
      ++applied_;
      Respond(env, cmd, true, {});
      return;
    case Command::Op::kSeal:
      return;  // handled above, before the range filter
  }
  ++applied_;
  if (cfg_.sessions && cmd.session_id != 0 && cmd.session_seq != 0) {
    sessions_.Record(cmd.session_id, cmd.session_seq, ok, rows);
    if (cfg_.on_session_apply) {
      cfg_.on_session_apply(cmd.session_id, cmd.session_seq);
    }
  }
  Respond(env, cmd, ok, std::move(rows));
}

// Applies the ordered repartition seal (docs/RECONFIG.md): the moved
// keys leave the store at this log position, the handoff checkpoint —
// moved rows plus the full session table, so dedup survives the move —
// becomes servable, and later writes into the range are redirected.
// Delivered on every source replica at the same position; idempotent
// under coordinator retries (the plan id keys the seal).
void Replica::ExecuteSeal(Env& env, const Command& cmd) {
  if (auto it = sealed_.find(cmd.req_id); it != sealed_.end()) {
    Respond(env, cmd, true, {});
    return;
  }
  const auto [lo, hi] = cfg_.range;
  const Key slo = std::max(cmd.kmin, lo);
  const Key shi = std::min(cmd.kmax, hi);
  if (slo > shi) {
    // Not this partition's range (a g_all replica, or a stray seal).
    ++discarded_;
    return;
  }
  auto moved = store_.Query(slo, shi);  // unlimited: the whole range moves
  for (const auto& [k, v] : moved) store_.Delete(k);
  sealed_.emplace(cmd.req_id,
                  SealedRange{slo, shi, cmd.target_group});
  ByteWriter w;
  w.u64(cmd.req_id);
  w.u32(cmd.target_group);
  w.u64(slo);
  w.u64(shi);
  w.varint(moved.size());
  for (const auto& [k, v] : moved) {
    w.u64(k);
    w.str(v);
  }
  w.bytes(sessions_.Serialize());
  recovery::Checkpoint cp;
  cp.id = cmd.req_id;
  cp.delivered_count = applied_;
  cp.app_state = w.take();
  handoff_store_.Put(cp, [] {});
  ++applied_;
  if (ctr_seals_ == nullptr) {
    ctr_seals_ = &env.metrics().counter("smr.replica.seals");
  }
  ctr_seals_->Inc();
  Respond(env, cmd, true, {});
}

// Serves a handoff checkpoint to a repartition target, chunked exactly
// like learner checkpoints (recoverable_learner.cc).
void Replica::ServeHandoff(Env& env, NodeId from,
                           const recovery::SnapshotRequest& req) {
  const Bytes* blob = handoff_store_.Encoded(req.checkpoint_id);
  if (blob == nullptr) {
    env.Send(from,
             MakeMessage<recovery::SnapshotDone>(req.checkpoint_id, 0, 0, 0));
    return;
  }
  const std::uint64_t id =
      req.checkpoint_id == 0 ? handoff_store_.latest_id() : req.checkpoint_id;
  const std::size_t chunk = handoff_chunk_bytes_ < 1 ? 1 : handoff_chunk_bytes_;
  const auto total =
      static_cast<std::uint32_t>((blob->size() + chunk - 1) / chunk);
  std::uint32_t end = total;
  if (req.max_chunks != 0 && req.from_chunk + req.max_chunks < total) {
    end = req.from_chunk + req.max_chunks;
  }
  for (std::uint32_t i = req.from_chunk; i < end; ++i) {
    const std::size_t clo = static_cast<std::size_t>(i) * chunk;
    const std::size_t chi = std::min(blob->size(), clo + chunk);
    env.Send(from, MakeMessage<recovery::SnapshotChunk>(
                       id, i, total,
                       Bytes(blob->begin() + static_cast<std::ptrdiff_t>(clo),
                             blob->begin() + static_cast<std::ptrdiff_t>(chi))));
  }
  env.Send(from, MakeMessage<recovery::SnapshotDone>(
                     id, total, blob->size(), recovery::Fnv1a(*blob)));
}

void Replica::StartHandoffFetch(Env& env) {
  if (bootstrapped_) return;
  recovery::RecoveryManager::Options o;
  o.peers = cfg_.handoff_peers;
  handoff_fetch_ = std::make_unique<recovery::RecoveryManager>(std::move(o));
  handoff_fetch_->Start(env, [this, &env](recovery::Checkpoint cp) {
    if (cp.app_state.empty()) {
      // The source has not sealed yet (or every peer rotation failed):
      // retry from a fresh transfer. The timer indirection also keeps
      // the finished manager alive until we are out of its callback.
      env.SetTimer(cfg_.handoff_retry, [this, &env] {
        StartHandoffFetch(env);
      });
      return;
    }
    InstallHandoff(env, cp);
  });
}

void Replica::InstallHandoff(Env& env, const recovery::Checkpoint& cp) {
  ByteReader r(cp.app_state);
  auto plan = r.u64();
  auto target = r.u32();
  auto lo = r.u64();
  auto hi = r.u64();
  auto n = r.varint();
  bool ok = plan && target && lo && hi && n && *plan == cfg_.handoff_plan;
  std::vector<std::pair<Key, std::string>> rows;
  if (ok) {
    rows.reserve(static_cast<std::size_t>(*n));
    for (std::uint64_t i = 0; i < *n; ++i) {
      auto k = r.u64();
      auto v = r.str();
      if (!k || !v) {
        ok = false;
        break;
      }
      rows.emplace_back(*k, std::move(*v));
    }
  }
  std::optional<Bytes> sess = ok ? r.bytes() : std::nullopt;
  if (!ok || !sess) {
    env.SetTimer(cfg_.handoff_retry, [this, &env] { StartHandoffFetch(env); });
    return;
  }
  for (const auto& [k, v] : rows) store_.Insert(k, v);
  // The source's session table at the seal comes with the rows: every
  // pre-seal apply is recorded here, so a duplicate that raced the move
  // is suppressed on this side too (exactly-once across the split).
  sessions_.Deserialize(*sess);
  bootstrapped_ = true;
  // Replay deliveries buffered while the handoff was in flight through
  // the full Execute path — dedup and redirects included.
  auto pending = std::move(pending_applies_);
  pending_applies_.clear();
  for (const auto& cmd : pending) Execute(env, cmd);
}

Bytes Replica::SnapshotState() const {
  ByteWriter w;
  w.u64(applied_);
  w.bytes(store_.Serialize());
  // The session table checkpoints with the store: a replica restored
  // from this snapshot keeps suppressing duplicates of everything it
  // had applied at the cut (docs/SESSIONS.md, docs/RECOVERY.md).
  w.bytes(sessions_.Serialize());
  return w.take();
}

bool Replica::RestoreState(const Bytes& bytes) {
  ByteReader r(bytes);
  auto applied = r.u64();
  auto rows = r.bytes();
  auto sess = r.bytes();
  if (!applied || !rows || !sess || !r.done()) return false;
  if (!store_.Deserialize(*rows)) return false;
  if (!sessions_.Deserialize(*sess)) return false;
  applied_ = *applied;
  // A restored replica is by definition caught up to the checkpoint; it
  // does not need the peer bootstrap path.
  bootstrapped_ = true;
  return true;
}

}  // namespace mrp::smr
