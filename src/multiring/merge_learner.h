// Multi-Ring Paxos learner (Algorithm 1, Task 4), and the only learner
// protocol: a single-ring learner is a MergeLearner of one ring, for
// which the merge is the identity. Subscribes to one or more groups —
// each ordered by its own protocol instance (a Ring Paxos ring by
// default, or any paxos::GroupSource, realizing the paper's Section VII
// conjecture) — and deterministically merges the per-group decision
// streams: groups are visited in ascending group-id order, consuming M
// consensus instances per group per turn and buffering decisions that
// arrive ahead of their turn. Skip instances consume merge turns without
// delivering anything — this is what lets slow groups keep up with fast
// ones (Section IV-A).
//
// A bounded buffer models the paper's learner-halt behaviour (Figure
// 10): once more than `max_buffer_msgs` messages are buffered, the
// learner stops delivering for good, exactly like the prototype whose
// buffers overflow. A halted learner drops ring traffic and stops
// ticking its sources, so its buffers stay at their size at the halt.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/fingerprint.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/wire.h"
#include "paxos/group_source.h"
#include "paxos/value.h"
#include "ringpaxos/learner.h"
#include "ringpaxos/messages.h"

namespace mrp::multiring {

class MergeLearner final : public Protocol {
 public:
  using DeliverFn = std::function<void(GroupId, const paxos::ClientMsg&)>;

  struct Options {
    // Ring-Paxos-backed groups (the common case); each becomes a
    // ringpaxos::LearnerCore on construction.
    std::vector<ringpaxos::LearnerOptions> groups;
    // Additional custom sources (e.g. paxos::PaxosGroupSource).
    std::vector<std::unique_ptr<paxos::GroupSource>> sources;
    // M: consensus instances consumed per group per round-robin turn.
    std::uint32_t m = 1;
    // Per-group merge quotas M_g (Stretching M-RP's rate-proportional
    // merge): groups listed here consume their own quota per turn
    // instead of the uniform `m`, so rings running at different maximum
    // rates lambda_g stay merge-balanced when M_g is proportional to
    // lambda_g. Groups not listed fall back to `m`. Quotas are clamped
    // to >= 1.
    std::map<GroupId, std::uint32_t> m_per_group;
    // Total buffered messages before the learner halts (0 = unlimited).
    std::size_t max_buffer_msgs = 0;
    bool send_delivery_acks = false;
    // Geo latency compensation (Stretching M-RP): hold each merged
    // message until `sent_at + latency_compensation` before delivering,
    // so learners in different sites — whose natural delivery latencies
    // differ by the inter-site RTTs — deliver with comparable skew.
    // Merge order is preserved (release times are clamped monotone).
    // 0 = deliver immediately (the paper's behaviour).
    Duration latency_compensation{0};
    // The one learner cadence: every tick runs each source's Tick (gap
    // recovery) and then the merge.
    Duration tick_interval = Millis(10);
    DeliverFn on_deliver;  // optional
    // Oracle tap (src/check): fired for every instance consumed by the
    // merge, skips included, before subscription filtering or latency
    // compensation. The RingId is the source's ack ring. Optional.
    std::function<void(RingId, InstanceId, const paxos::Value&)> on_decide;
    // Recovery tap (src/recovery, docs/RECOVERY.md): fired whenever the
    // round-robin wraps back to merge position 0 — the turn boundary at
    // which CurrentCut() is a merge-consistent checkpoint cut. Keep it
    // cheap: it runs once per completed merge round. Optional.
    std::function<void()> on_turn_boundary;
    // Reconfiguration tap (src/reconfig, docs/RECONFIG.md): fired when a
    // queued subscribe/unsubscribe activates at a turn boundary. For a
    // subscribe, the InstanceId is the first instance the new source
    // will consume — the delivery cut. Optional.
    std::function<void(GroupId, bool /*subscribed*/, InstanceId)>
        on_subscription_change;
  };

  explicit MergeLearner(Options opts);

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  // ---- Stats ----
  struct GroupStats {
    GroupId group = 0;
    Histogram latency;
    RateMeter delivered;
    RateMeter received;  // every message consumed for this group
    std::uint64_t skipped_logical = 0;
    // Messages ordered by this group's source but not subscribed to
    // (bandwidth/CPU waste of many-groups-per-ring, Section IV-D).
    std::uint64_t discarded = 0;
  };
  GroupStats& stats(std::size_t idx) { return *stats_[idx]; }
  std::size_t group_count() const { return groups_.size(); }
  std::uint64_t total_delivered() const { return total_delivered_; }
  std::size_t buffered_msgs() const;
  paxos::GroupSource* group_source(std::size_t idx) {
    return groups_[idx]->source.get();
  }
  bool halted() const { return halted_; }
  // While held, the sources keep buffering their streams but the merge
  // consumes nothing: a host holds it while it fetches the checkpoint it
  // resumes at (docs/RECOVERY.md).
  void Hold(bool held) { held_ = held; }
  // Effective merge quota of the group at merge position `idx`.
  std::uint32_t quota(std::size_t idx) const { return quota_[idx]; }
  // Messages currently held back by latency compensation.
  std::size_t compensation_held() const { return comp_queue_.size(); }

  // ---- Dynamic subscriptions (docs/RECONFIG.md) ----
  // Queue a group join/leave. Changes activate at the next merge turn
  // boundary — the same merge-consistent cut checkpoints use — so
  // unaffected groups keep their relative merge order across the
  // change. The caller positions a subscribing source (StartAt, usually
  // from a snapshot cut) before queueing; quota 0 means the uniform
  // `m`. Duplicate subscribes and unknown unsubscribes are dropped when
  // applied.
  void QueueSubscribe(std::unique_ptr<paxos::GroupSource> source,
                      std::uint32_t quota = 0);
  void QueueUnsubscribe(GroupId group);
  std::uint64_t subscription_changes() const { return subscription_changes_; }
  std::vector<GroupId> SubscribedGroups() const;

  // ---- Checkpoint & recovery (docs/RECOVERY.md) ----
  // One group's resume position at a turn boundary.
  struct CutEntry {
    RingId ring = 0;
    InstanceId next_instance = 0;  // everything below is delivered
    // Logical instances of an already-consumed skip batch the merge
    // still owes this group's quota.
    std::uint64_t pending_skip = 0;

    MRP_WIRE_FIELDS(ring, next_instance, pending_skip)
    friend bool operator==(const CutEntry&, const CutEntry&) = default;
  };
  // The merge-consistent cut, in merge (ascending group) order. Only
  // meaningful at a turn boundary (inside on_turn_boundary, or before
  // any consumption).
  std::vector<CutEntry> CurrentCut() const;
  // True exactly when the merge sits at a turn boundary right now (also
  // true before any consumption) — CurrentCut() is valid to take.
  bool AtTurnBoundary() const { return current_ == 0 && consumed_ == 0; }
  // Resumes the learner at a checkpoint cut, before OnStart or while
  // running: each source moves to its cut instance, pending skips are
  // re-owed, the merge restarts at the turn boundary the cut was taken
  // at (nothing held back), and the delivery counter continues from the
  // checkpoint. Entries whose ring no group matches are ignored.
  void RestoreCut(const std::vector<CutEntry>& cut,
                  std::uint64_t delivered_count);

  // State digest for the model checker (docs/MODEL_CHECKING.md): every
  // source's decision state plus the merge cursor and the compensation
  // hold queue (release times are timing, not state, and excluded).
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(groups_.size());
    for (const auto& g : groups_) {
      f.U32(g->source->group());
      f.U64(g->source->Fingerprint());
      f.U64(g->pending_skip);
    }
    f.U64(current_);
    f.U32(consumed_);
    f.Bool(halted_);
    // Folded only when held, so the model checker's merges (never held)
    // keep the digests its recorded state counts rest on.
    if (held_) f.Bool(true);
    f.U64(total_delivered_);
    f.U64(subscription_changes_);
    f.U64(pending_subscribes_.size());
    f.U64(pending_unsubscribes_.size());
    f.U64(comp_queue_.size());
    for (const auto& held : comp_queue_) {
      f.U64(held.idx);
      f.U64(held.msg.Fingerprint());
    }
    return f.digest();
  }

 private:
  struct GroupState {
    explicit GroupState(std::unique_ptr<paxos::GroupSource> s)
        : source(std::move(s)) {}
    std::unique_ptr<paxos::GroupSource> source;
    // Remaining logical instances of a popped skip value still to be
    // consumed by merge turns.
    std::uint64_t pending_skip = 0;
  };

  void PumpMerge(Env& env);
  void ApplySubscriptionChanges(Env& env);
  Counter* DiscardCounterFor(GroupId group);
  void Deliver(Env& env, std::size_t idx, const paxos::Value& value);
  // Final delivery of one message (stats, callback, ack). With latency
  // compensation the call is deferred until the release time.
  void DeliverMsg(Env& env, std::size_t idx, const paxos::ClientMsg& msg);
  void PumpCompensation(Env& env);
  void ArmTick(Env& env);
  void SyncMergeGauges();

  Options opts_;
  std::vector<std::unique_ptr<GroupState>> groups_;
  std::vector<std::unique_ptr<GroupStats>> stats_;
  std::vector<std::uint32_t> quota_;  // per merge position (sorted by group)
  std::size_t current_ = 0;       // group whose turn it is
  std::uint32_t consumed_ = 0;    // instances consumed in the current turn
  bool halted_ = false;
  bool held_ = false;
  std::uint64_t total_delivered_ = 0;

  // Dynamic-subscription state: queued changes waiting for the next
  // turn boundary, and how many have activated so far.
  std::vector<std::pair<std::unique_ptr<paxos::GroupSource>, std::uint32_t>>
      pending_subscribes_;
  std::vector<GroupId> pending_unsubscribes_;
  std::uint64_t subscription_changes_ = 0;

  // Latency-compensation hold queue, in merge (= release) order.
  struct HeldMsg {
    TimePoint release;
    std::size_t idx;  // merge position (stats/ack routing)
    paxos::ClientMsg msg;
  };
  std::deque<HeldMsg> comp_queue_;
  TimePoint comp_last_release_{0};
  bool comp_timer_armed_ = false;

  // Registry instruments (resolved in OnStart; one set per group, in
  // merge order). "consumed" counts logical instances taken by merge
  // turns, so consumed == m * turns + partial_consumed (when the group
  // is current) holds at every quiescent point — the invariant the
  // observability test asserts. See docs/OBSERVABILITY.md.
  struct GroupInstruments {
    Counter* consumed = nullptr;       // logical instances taken by turns
    Counter* turns = nullptr;          // completed M-instance turns
    Counter* skip_consumed = nullptr;  // subset of consumed that were skips
    Counter* delivered = nullptr;      // client msgs delivered
    Counter* discarded = nullptr;      // ordered but unsubscribed msgs
  };
  std::vector<GroupInstruments> instruments_;
  // Discard instruments keyed by the discarded message's group (the
  // group routes may not be merge positions of this learner at all);
  // lazily created so subscribe-everything deployments keep their seed
  // metrics snapshot. The GroupStats.discarded field stays attributed
  // to the *source* that ordered the message (extensions_test relies on
  // it); only the registry counters attribute to the message's group.
  std::map<GroupId, Counter*> extra_discard_;
  MetricsRegistry* metrics_ = nullptr;  // set in OnStart
  Counter* ctr_subscription_changes_ = nullptr;  // lazily created
  Counter* ctr_stalls_ = nullptr;  // blocked mid-turn on a lagging group
  Counter* ctr_halts_ = nullptr;
  Gauge* gauge_partial_consumed_ = nullptr;
  Gauge* gauge_current_group_ = nullptr;
  // Geo instruments, created only when the corresponding feature is on
  // so default deployments export byte-identical metrics snapshots.
  Counter* ctr_comp_held_ = nullptr;
  Gauge* gauge_comp_queue_ = nullptr;
};

}  // namespace mrp::multiring
