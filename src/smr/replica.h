// A state-machine replica of one partition (paper Section II-C). The
// replica subscribes to its partition's group and to the all-partitions
// group g_all via the Multi-Ring Paxos merge learner, applies decided
// commands that concern its key range in delivery order, and answers
// clients directly. Commands outside the replica's range (possible on
// g_all) are discarded, exactly as the paper describes.
//
// The replica is the application (a Snapshottable plus a delivery
// handler) of one recovery::RecoverableLearner, which owns the merge and
// every state transfer: late join, catch-up past the acceptors'
// retention (or fail-stop without peers) and a repartition target's
// handoff each fetch one checkpoint with its merge cut and resume the
// merge there, with no command buffered or replayed (docs/RECOVERY.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/fingerprint.h"
#include "common/wire.h"
#include "recovery/recoverable_learner.h"
#include "recovery/snapshottable.h"
#include "session/messages.h"
#include "session/session_table.h"
#include "smr/command.h"
#include "smr/kvstore.h"

namespace mrp::smr {

struct ReplicaConfig {
  GroupId partition = 0;
  // Non-empty: this replica fetches its state from these peers before
  // applying anything — a peer replica's state at a merge cut (late
  // join: the multicast history may already be trimmed), or with
  // `handoff_plan` the source replicas' sealed handoff. A replica that
  // falls behind the acceptors' retention fetches from its peers of the
  // same partition again; without any it stops applying.
  std::vector<NodeId> bootstrap_peers;
  std::pair<Key, Key> range{0, ~0ULL};
  // Ring carrying this partition's group and (optionally) the ring
  // carrying g_all (queries spanning partitions).
  ringpaxos::LearnerOptions partition_ring;
  std::optional<ringpaxos::LearnerOptions> all_ring;
  std::uint32_t m = 1;
  // False = dummy service (Figure 2): commands are discarded unexecuted.
  bool execute = true;
  bool respond = true;
  std::size_t query_row_limit = 64;  // rows returned per partition
  // Oracle tap (src/check): fired for every command this replica runs
  // through Execute, in apply order and before range filtering — the
  // linearizability feed of the SMR consistency oracle. Optional.
  std::function<void(const Command&)> on_apply;

  // ---- Session control plane (docs/SESSIONS.md) ----
  // Dedup session-stamped commands through an embedded SessionTable
  // (exactly-once over at-least-once submission).
  bool sessions = false;
  // Serve lease-local linearizable reads (session::SessionRead) while
  // holding a read lease from a session::LeaseGrantor.
  bool serve_local_reads = false;
  // Poll interval while a local read waits for the applied frontier to
  // cover the lease's grant point.
  Duration read_recheck = Millis(1);
  std::size_t session_response_cache = 64;
  // Oracle taps (src/check): a session-stamped command passed dedup and
  // executed; a local read was served, with the lease/frontier evidence
  // the serve decision used.
  std::function<void(std::uint64_t sid, std::uint64_t seq)> on_session_apply;
  std::function<void(std::uint64_t epoch, bool lease_valid,
                     InstanceId grant_point, InstanceId frontier)>
      on_local_read;

  // ---- Live repartition (docs/RECONFIG.md) ----
  // Target side: non-zero = the state fetched from `bootstrap_peers` is
  // the sealed handoff with this plan id, requested by that id and
  // never substituted by another. The target's merge starts once the
  // handoff is installed; the transferred SessionTable keeps dedup
  // intact across the move. The coordinator learns of completion via
  // PlanStatus (answered to its HandoffRequest probes).
  std::uint64_t handoff_plan = 0;
};

class Replica final : public Protocol, public recovery::Snapshottable {
 public:
  explicit Replica(ReplicaConfig cfg);

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  // ---- recovery::Snapshottable (docs/RECOVERY.md) ----
  // Captures/installs the applied counter, the full KV store, the
  // session table and the sealed ranges with their handoffs; a restored
  // replica's store Fingerprint equals the source's. Every transfer
  // carries this format (a handoff carries no sealed ranges).
  Bytes SnapshotState() const override;
  bool RestoreState(const Bytes& bytes) override;
  // The sealed handoff of plan `id`, while the seal lives.
  const Bytes* Handoff(std::uint64_t id) const override;

  const KvStore& store() const { return store_; }
  std::uint64_t applied() const { return applied_; }
  std::uint64_t discarded() const { return discarded_; }
  std::uint64_t redirected() const { return redirected_; }
  std::uint64_t seals() const { return sealed_.size(); }
  // Applying: the state is installed and follows the stream gap-free.
  bool bootstrapped() const { return learner_.live(); }
  const recovery::RecoverableLearner& learner() const { return learner_; }
  const session::SessionTable& sessions() const { return sessions_; }
  std::uint64_t duplicates_suppressed() const { return dup_suppressed_; }
  std::uint64_t local_reads_served() const { return local_reads_served_; }
  // True while the lease window is open at `now` (the serve check also
  // requires the applied frontier to cover the lease's grant point).
  bool LeaseValid(TimePoint now) const {
    return lease_epoch_ != 0 && now < lease_expires_;
  }
  // State digest for the model checker (docs/MODEL_CHECKING.md): the
  // embedded merge learner, the KV store, apply progress, and the
  // session/lease control plane.
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(learner_.merge().Fingerprint());
    f.U64(store_.Fingerprint());
    f.Bool(learner_.live());
    f.U64(applied_);
    f.U64(discarded_);
    f.U64(sessions_.Fingerprint());
    f.U64(dup_suppressed_);
    f.U64(lease_epoch_);
    f.U64(static_cast<std::uint64_t>(lease_expires_.count()));
    f.U64(lease_grant_point_);
    f.U64(pending_reads_.size());
    f.U64(local_reads_served_);
    f.U64(sealed_.size());
    for (const auto& [id, s] : sealed_) {
      f.U64(id);
      f.U64(s.lo);
      f.U64(s.hi);
      f.U32(s.target);
    }
    f.U64(redirected_);
    return f.digest();
  }

 private:
  struct PendingRead {
    NodeId from = kNoNode;
    std::uint64_t req_id = 0;
    Key kmin = 0, kmax = 0;
  };
  // Pending local reads keyed by (client, req_id): req_ids are
  // client-local, so two clients may collide on the bare id.
  using ReadKey = std::pair<NodeId, std::uint64_t>;

  void Apply(Env& env, GroupId group, const paxos::ClientMsg& msg);
  void Execute(Env& env, const Command& cmd);
  struct SealedRange;
  static Bytes EncodeState(std::uint64_t applied, const KvStore& store,
                           const session::SessionTable& sessions,
                           const std::map<std::uint64_t, SealedRange>& sealed);
  void Respond(Env& env, const Command& cmd, bool ok,
               std::vector<std::pair<Key, std::string>> rows,
               GroupId redirect = kNoGroup);
  void TryServeRead(Env& env, ReadKey key);
  void ExecuteSeal(Env& env, const Command& cmd);

  ReplicaConfig cfg_;
  KvStore store_;
  session::SessionTable sessions_;
  std::map<ReadKey, PendingRead> pending_reads_;
  std::uint64_t lease_epoch_ = 0;  // 0 = never held a lease
  TimePoint lease_expires_{0};
  InstanceId lease_grant_point_ = 0;
  std::uint64_t dup_suppressed_ = 0;
  std::uint64_t local_reads_served_ = 0;
  Counter* ctr_dups_ = nullptr;
  Counter* ctr_local_reads_ = nullptr;
  Counter* ctr_read_fallbacks_ = nullptr;
  std::uint64_t applied_ = 0;
  std::uint64_t discarded_ = 0;

  // ---- Live repartition (docs/RECONFIG.md) ----
  // Source side: key ranges sealed out of this partition by an applied
  // kSeal, keyed by plan id. Writes landing in a sealed range are
  // refused with a redirect to the owning group instead of applied.
  // `handoff` is the encoded checkpoint served to the target under the
  // plan id; it lives as long as the seal, so no later snapshot can
  // evict a handoff a target may still request.
  struct SealedRange {
    Key lo = 0;
    Key hi = 0;
    GroupId target = 0;
    Bytes handoff;

    MRP_WIRE_FIELDS(lo, hi, target, handoff)
  };
  std::map<std::uint64_t, SealedRange> sealed_;

  // SnapshotState's format is a State followed by the sealed ranges,
  // which EncodeState reads in place. The store and the session table
  // travel as blobs in their own formats: a replica restored from this
  // state keeps suppressing duplicates of everything applied at the cut
  // (docs/SESSIONS.md), and a source replica restored after a seal keeps
  // redirecting writes into the moved range and can serve the plan's
  // handoff (docs/RECONFIG.md).
  struct State {
    std::uint64_t applied = 0;
    Bytes store;     // KvStore::Serialize()
    Bytes sessions;  // SessionTable::Serialize()

    MRP_WIRE_FIELDS(applied, store, sessions)
  };
  std::uint64_t redirected_ = 0;
  Counter* ctr_redirects_ = nullptr;
  Counter* ctr_seals_ = nullptr;
  Env* env_ = nullptr;
  // Declared last: it calls back into everything above.
  recovery::RecoverableLearner learner_;
};

}  // namespace mrp::smr
