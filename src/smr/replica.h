// A state-machine replica of one partition (paper Section II-C). The
// replica subscribes to its partition's group and to the all-partitions
// group g_all via the Multi-Ring Paxos merge learner, applies decided
// commands that concern its key range in delivery order, and answers
// clients directly. Commands outside the replica's range (possible on
// g_all) are discarded, exactly as the paper describes.
//
// State moves between replicas over the recovery layer's chunked
// snapshot transfer only (recovery/recovery_manager.h). Every replica
// serves it: a request for id 0 gets a snapshot of its state taken at
// that moment (only once the replica is itself bootstrapped), a request
// for a plan id gets that plan's sealed handoff. A replica configured
// with `bootstrap_peers` pulls one of the two before it applies
// anything, and installs it through RestoreState.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/fingerprint.h"
#include "multiring/merge_learner.h"
#include "recovery/recovery_manager.h"
#include "recovery/snapshot_store.h"
#include "recovery/snapshottable.h"
#include "session/messages.h"
#include "session/session_table.h"
#include "smr/command.h"
#include "smr/kvstore.h"

namespace mrp::smr {

struct ReplicaConfig {
  GroupId partition = 0;
  // Non-empty: this replica starts unbootstrapped and fetches its state
  // from these peers before applying anything — the current state of a
  // peer replica of the same partition (late join: the multicast history
  // may already be trimmed), or with `handoff_plan` the sealed handoff
  // of the source group's replicas.
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
  // never substituted by another. Deliveries buffer until the handoff is
  // installed; the transferred SessionTable keeps dedup intact across
  // the move. The coordinator learns of completion via PlanStatus
  // (answered to its HandoffRequest probes).
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
  // replica's store Fingerprint equals the source's. The bootstrap and
  // handoff transfers carry this format (a handoff carries no sealed
  // ranges).
  Bytes SnapshotState() const override;
  bool RestoreState(const Bytes& bytes) override;

  const KvStore& store() const { return store_; }
  std::uint64_t applied() const { return applied_; }
  std::uint64_t discarded() const { return discarded_; }
  std::uint64_t redirected() const { return redirected_; }
  std::uint64_t seals() const { return sealed_.size(); }
  bool bootstrapped() const { return bootstrapped_; }
  multiring::MergeLearner& merge() { return *merge_; }
  const session::SessionTable& sessions() const { return sessions_; }
  std::uint64_t duplicates_suppressed() const { return dup_suppressed_; }
  std::uint64_t local_reads_served() const { return local_reads_served_; }
  std::uint64_t lease_epoch() const { return lease_epoch_; }
  // True while the lease window is open at `now` (the serve check also
  // requires the applied frontier to cover the lease's grant point).
  bool LeaseValid(TimePoint now) const {
    return lease_epoch_ != 0 && now < lease_expires_;
  }
  // Applied frontier of the partition's ring, in ring instances:
  // everything below is delivered (and applied synchronously).
  InstanceId ApplyFrontier() const {
    return merge_->group_source(0)->next_instance();
  }

  // State digest for the model checker (docs/MODEL_CHECKING.md): the
  // embedded merge learner, the KV store, apply progress, and the
  // session/lease control plane.
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(merge_->Fingerprint());
    f.U64(store_.Fingerprint());
    f.U64(pending_applies_.size());
    f.Bool(fetch_ != nullptr);
    f.U64(applied_);
    f.U64(discarded_);
    f.Bool(bootstrapped_);
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
  void StartFetch(Env& env);
  void ServeSnapshot(Env& env, NodeId from,
                     const recovery::SnapshotRequest& req);
  void Respond(Env& env, const Command& cmd, bool ok,
               std::vector<std::pair<Key, std::string>> rows,
               GroupId redirect = kNoGroup);
  void TryServeRead(Env& env, ReadKey key);
  void ExecuteSeal(Env& env, const Command& cmd);

  ReplicaConfig cfg_;
  std::unique_ptr<multiring::MergeLearner> merge_;
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
  // Deliveries buffered while the bootstrap fetch is in flight. A late
  // joiner requests its snapshot only after the merge stream is
  // positioned and delivering, so snapshot position >= stream start:
  // replaying the buffer over the snapshot converges (commands are
  // idempotent per key, session-stamped ones deduplicated) and can
  // never leave a gap.
  std::vector<Command> pending_applies_;
  // The bootstrap fetch (late join or handoff); null until started.
  std::unique_ptr<recovery::RecoveryManager> fetch_;
  // Snapshots taken to answer id-0 requests, kept so the requester's
  // later windows read the same bytes. Their ids start above every plan
  // id (plan ids stay below 2^63), so they never shadow a handoff.
  recovery::SnapshotStore served_{2};
  std::uint64_t applied_ = 0;
  std::uint64_t discarded_ = 0;
  bool bootstrapped_ = false;

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
  };
  std::map<std::uint64_t, SealedRange> sealed_;
  std::uint64_t redirected_ = 0;
  Counter* ctr_redirects_ = nullptr;
  Counter* ctr_seals_ = nullptr;
  Env* env_ = nullptr;
};

}  // namespace mrp::smr
