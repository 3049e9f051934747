#include "smr/replica.h"

#include <algorithm>

#include "reconfig/messages.h"

namespace mrp::smr {
namespace {

// Pause before a bootstrap fetch that found nothing starts over.
constexpr Duration kFetchRetry = Millis(100);
// Ids of the snapshots served for id-0 requests start above this; plan
// ids (the handoff checkpoint ids) stay below it.
constexpr std::uint64_t kServedIdBase = 1ULL << 63;

}  // namespace

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
  bootstrapped_ = cfg_.bootstrap_peers.empty();
  if (cfg_.sessions) {
    ctr_dups_ = &env.metrics().counter("smr.replica.session_dups");
  }
  if (cfg_.serve_local_reads) {
    ctr_local_reads_ = &env.metrics().counter("smr.replica.local_reads");
    ctr_read_fallbacks_ = &env.metrics().counter("smr.replica.read_fallbacks");
  }
  merge_->OnStart(env);
  // A late joiner fetches lazily, on its first delivery: only then is
  // the merge stream's start position fixed, which guarantees the peer's
  // snapshot covers everything before it. A repartition target fetches
  // right away — its handoff's content is fixed by the seal position in
  // the *source* stream, not by ours.
  if (!bootstrapped_ && cfg_.handoff_plan != 0) StartFetch(env);
}

void Replica::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  env_ = &env;
  switch (m->tag()) {
    case recovery::SnapshotRequest::kTag:
      ServeSnapshot(env, from,
                    *static_cast<const recovery::SnapshotRequest*>(m.get()));
      return;
    case recovery::SnapshotChunk::kTag:
    case recovery::SnapshotDone::kTag:
      if (fetch_ != nullptr) fetch_->OnMessage(env, from, m);
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
    // Stream is live but the bootstrap state has not been installed
    // yet: buffer, and (late join) kick off the fetch now that the
    // stream's start position is fixed.
    pending_applies_.push_back(std::move(*cmd));
    if (fetch_ == nullptr) StartFetch(env);
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
  KvStore moved;
  for (auto& [k, v] : store_.Query(slo, shi)) {  // the whole range moves
    store_.Delete(k);
    moved.Insert(k, std::move(v));
  }
  // The handoff is a checkpoint in SnapshotState's format, so the target
  // installs it through RestoreState like any bootstrap. Its applied
  // counter is 0: the target has applied none of these commands itself.
  recovery::Checkpoint cp;
  cp.id = cmd.req_id;
  cp.delivered_count = applied_;
  cp.app_state = EncodeState(0, moved, sessions_, {});
  sealed_.emplace(cmd.req_id,
                  SealedRange{slo, shi, cmd.target_group, cp.Encode()});
  ++applied_;
  if (ctr_seals_ == nullptr) {
    ctr_seals_ = &env.metrics().counter("smr.replica.seals");
  }
  ctr_seals_->Inc();
  Respond(env, cmd, true, {});
}

// Answers a snapshot request (recovery::ServeSnapshot does the
// chunking): id 0 is this replica's state, snapshotted now; a plan id is
// that plan's sealed handoff; a snapshot id is one taken for an earlier
// window of the same transfer.
void Replica::ServeSnapshot(Env& env, NodeId from,
                            const recovery::SnapshotRequest& req) {
  std::uint64_t id = req.checkpoint_id;
  const Bytes* blob = nullptr;
  if (id == 0) {
    // An unbootstrapped replica has no state to give: serving it would
    // propagate a hole.
    if (bootstrapped_) {
      recovery::Checkpoint cp;
      cp.id = std::max(served_.latest_id(), kServedIdBase) + 1;
      cp.delivered_count = applied_;
      cp.app_state = SnapshotState();
      served_.Put(cp, nullptr);
      id = cp.id;
      blob = served_.Encoded(id);
    }
  } else if (auto it = sealed_.find(id); it != sealed_.end()) {
    blob = &it->second.handoff;
  } else {
    blob = served_.Encoded(id);
  }
  recovery::ServeSnapshot(env, from, req, id, blob);
}

void Replica::StartFetch(Env& env) {
  recovery::RecoveryManager::Options o;
  o.peers = cfg_.bootstrap_peers;
  fetch_ = std::make_unique<recovery::RecoveryManager>(std::move(o));
  // A late joiner asks for the peers' current state (id 0), a
  // repartition target for its plan's handoff.
  fetch_->Start(
      env,
      [this, &env](recovery::Checkpoint cp) {
        if (cp.id == 0 || !RestoreState(cp.app_state)) {
          // Every peer was tried without success (none bootstrapped yet,
          // or the source has not sealed), or the state did not parse:
          // retry with a fresh transfer. The timer indirection also
          // keeps the finished manager alive until we are out of its
          // callback.
          env.SetTimer(kFetchRetry, [this, &env] { StartFetch(env); });
          return;
        }
        // Replay deliveries buffered while the fetch was in flight
        // through the full Execute path — dedup and redirects included.
        auto pending = std::move(pending_applies_);
        pending_applies_.clear();
        for (const auto& c : pending) Execute(env, c);
      },
      cfg_.handoff_plan);
}

Bytes Replica::EncodeState(std::uint64_t applied, const KvStore& store,
                           const session::SessionTable& sessions,
                           const std::map<std::uint64_t, SealedRange>& sealed) {
  ByteWriter w;
  w.u64(applied);
  w.bytes(store.Serialize());
  // The session table travels with the store: a replica restored from
  // this state keeps suppressing duplicates of everything applied at the
  // cut (docs/SESSIONS.md, docs/RECOVERY.md).
  w.bytes(sessions.Serialize());
  // So do the sealed ranges: a source replica restored after a seal
  // keeps redirecting writes into the moved range and can serve the
  // plan's handoff (docs/RECONFIG.md).
  w.varint(sealed.size());
  for (const auto& [id, s] : sealed) {
    w.u64(id);
    w.u64(s.lo);
    w.u64(s.hi);
    w.u32(s.target);
    w.bytes(s.handoff);
  }
  return w.take();
}

Bytes Replica::SnapshotState() const {
  return EncodeState(applied_, store_, sessions_, sealed_);
}

bool Replica::RestoreState(const Bytes& bytes) {
  ByteReader r(bytes);
  auto applied = r.u64();
  auto rows = r.bytes();
  auto sess = r.bytes();
  auto n_sealed = r.varint();
  if (!applied || !rows || !sess || !n_sealed) return false;
  std::map<std::uint64_t, SealedRange> sealed;
  for (std::uint64_t i = 0; i < *n_sealed; ++i) {
    auto id = r.u64();
    auto lo = r.u64();
    auto hi = r.u64();
    auto target = r.u32();
    auto handoff = r.bytes();
    if (!id || !lo || !hi || !target || !handoff) return false;
    sealed[*id] = SealedRange{*lo, *hi, *target, std::move(*handoff)};
  }
  if (!r.done()) return false;
  if (!store_.Deserialize(*rows)) return false;
  if (!sessions_.Deserialize(*sess)) return false;
  applied_ = *applied;
  sealed_ = std::move(sealed);
  // A restored replica is by definition caught up to the checkpoint: it
  // may serve snapshots and applies deliveries from here on.
  bootstrapped_ = true;
  return true;
}

}  // namespace mrp::smr
