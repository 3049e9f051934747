#include "smr/replica.h"

#include <algorithm>
#include <utility>

#include "reconfig/messages.h"

namespace mrp::smr {
namespace {

recovery::RecoverableLearner::Options LearnerOptions(
    const ReplicaConfig& cfg, recovery::Snapshottable* app,
    multiring::MergeLearner::DeliverFn deliver) {
  recovery::RecoverableLearner::Options o;
  o.merge.m = cfg.m;
  o.merge.groups.push_back(cfg.partition_ring);
  if (cfg.all_ring) o.merge.groups.push_back(*cfg.all_ring);
  o.merge.on_deliver = std::move(deliver);
  o.app = app;
  o.recover_on_start = !cfg.bootstrap_peers.empty();
  o.fetch.peers = cfg.bootstrap_peers;
  // A late joiner asks for a peer's state (id 0), a repartition target
  // for its plan's handoff.
  o.fetch.checkpoint_id = cfg.handoff_plan;
  return o;
}

}  // namespace

Replica::Replica(ReplicaConfig cfg)
    : cfg_(std::move(cfg)),
      sessions_(cfg_.session_response_cache),
      learner_(LearnerOptions(cfg_, this,
                              [this](GroupId g, const paxos::ClientMsg& msg) {
                                Apply(*env_, g, msg);
                              })) {}

void Replica::OnStart(Env& env) {
  env_ = &env;
  if (cfg_.sessions) {
    ctr_dups_ = &env.metrics().counter("smr.replica.session_dups");
  }
  if (cfg_.serve_local_reads) {
    ctr_local_reads_ = &env.metrics().counter("smr.replica.local_reads");
    ctr_read_fallbacks_ = &env.metrics().counter("smr.replica.read_fallbacks");
  }
  learner_.OnStart(env);
}

void Replica::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  env_ = &env;
  switch (m->tag()) {
    case reconfig::HandoffRequest::kTag: {
      const auto* probe = static_cast<const reconfig::HandoffRequest*>(m.get());
      // Coordinator completion probe: answered once the handoff with that
      // plan id is installed (idempotent — probes are retried until the
      // PlanStatus gets through).
      if (probe->plan_id == cfg_.handoff_plan) {
        env.Send(from, MakeMessage<reconfig::PlanStatus>(probe->plan_id,
                                                         bootstrapped()));
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
      learner_.OnMessage(env, from, m);
  }
}

// A local read is linearizable only if the lease window is open AND the
// applied frontier covers the grant point: every command decided before
// the grant is applied here, and no other replica can hold the lease.
// Until the frontier catches up the read waits; once the lease lapses,
// or while the replica is not applying (fetching state, or stopped), it
// fails over to the through-the-ring path (docs/SESSIONS.md).
void Replica::TryServeRead(Env& env, ReadKey key) {
  auto it = pending_reads_.find(key);
  if (it == pending_reads_.end()) return;
  const PendingRead pr = it->second;
  const bool lease_valid = LeaseValid(env.now());
  if (!lease_valid || !bootstrapped()) {
    pending_reads_.erase(it);
    if (ctr_read_fallbacks_) ctr_read_fallbacks_->Inc();
    env.Send(pr.from, MakeMessage<session::SessionReadRep>(
                          pr.req_id, cfg_.partition,
                          session::SessionReadRep::kNoLease));
    return;
  }
  // Everything below the partition ring's next instance is applied.
  const InstanceId frontier =
      learner_.merge().group_source(0)->next_instance();
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
  // installs it through RestoreState like any bootstrap. It carries no
  // cut, and its applied and delivered counters are 0: the target's own
  // stream starts at its beginning, and the target has applied none of
  // these commands itself.
  recovery::Checkpoint cp;
  cp.id = cmd.req_id;
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

Bytes Replica::EncodeState(std::uint64_t applied, const KvStore& store,
                           const session::SessionTable& sessions,
                           const std::map<std::uint64_t, SealedRange>& sealed) {
  using Ref = std::pair<State, const std::map<std::uint64_t, SealedRange>&>;
  return wire::Encode(
      Ref(State{applied, store.Serialize(), sessions.Serialize()}, sealed));
}

Bytes Replica::SnapshotState() const {
  return EncodeState(applied_, store_, sessions_, sealed_);
}

bool Replica::RestoreState(const Bytes& bytes) {
  auto decoded =
      wire::Decode<std::pair<State, std::map<std::uint64_t, SealedRange>>>(
          bytes);
  KvStore store;
  session::SessionTable sessions(cfg_.session_response_cache);
  if (!decoded || !store.Deserialize(decoded->first.store) ||
      !sessions.Deserialize(decoded->first.sessions)) {
    return false;
  }
  applied_ = decoded->first.applied;
  store_ = std::move(store);
  sessions_ = std::move(sessions);
  sealed_ = std::move(decoded->second);
  return true;
}

const Bytes* Replica::Handoff(std::uint64_t id) const {
  auto it = sealed_.find(id);
  return it == sealed_.end() ? nullptr : &it->second.handoff;
}

}  // namespace mrp::smr
