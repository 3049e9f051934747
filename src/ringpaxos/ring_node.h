// RingNode: one acceptor of a Ring Paxos instance. Every universe member
// runs the same protocol object; the member that owns the current round
// additionally acts as the coordinator (the coordinator *is* one of the
// acceptors, Section III-B).
//
// Acceptor duties: accept Phase 2A values received by ip-multicast,
// forward the small Phase 2B votes along the logical ring, serve learner
// recovery requests, track decisions for log trimming.
//
// Coordinator duties: batch client values, assign value-IDs, ip-multicast
// Phase 2A, detect decisions at the end of the ring, piggyback/flush
// decision announcements, propose skip instances per the Multi-Ring
// Paxos rate policy (Algorithm 1), monitor ring members via heartbeats
// and reconfigure the ring (recruiting spares) on suspicion, and take
// over with a multi-instance Phase 1 after a coordinator failure.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/env.h"
#include "common/fingerprint.h"
#include "common/instance_window.h"
#include "common/stats.h"
#include "common/types.h"
#include "paxos/acceptor_core.h"
#include "paxos/storage.h"
#include "ringpaxos/config.h"
#include "ringpaxos/messages.h"

namespace mrp::ringpaxos {

class RingNode final : public Protocol {
 public:
  // `storage` is borrowed (e.g. a SimDiskStorage tied to the node); if
  // null the node owns an in-memory store ("In-memory Ring Paxos").
  explicit RingNode(RingConfig cfg, paxos::Storage* storage = nullptr);

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  // ---- Introspection (tests, benches) ----
  bool is_coordinator() const { return role_ == Role::kLeader; }
  Round round() const { return round_; }
  InstanceId next_instance() const { return next_instance_; }
  std::uint64_t decided_instances() const { return decided_instances_; }
  std::uint64_t decided_msgs() const { return decided_msgs_; }
  std::uint64_t skipped_logical() const { return skipped_logical_; }
  std::uint64_t skip_proposals() const { return skip_proposals_; }
  double last_mu() const { return last_mu_; }
  // Coordinator-side consensus latency: ProposeValue -> decision.
  Histogram& decide_latency() { return decide_latency_; }
  std::size_t outstanding() const { return outstanding_.size(); }
  // Logical instances proposed but not yet decided (skip spans counted).
  std::uint64_t outstanding_logical() const {
    std::uint64_t total = 0;
    for (const auto& [i, out] : outstanding_) total += out.value.LogicalInstances();
    return total;
  }
  std::size_t pending_msgs() const { return pending_.size(); }
  const RingConfig& config() const { return cfg_; }
  InstanceId decided_watermark() const { return decided_watermark_; }
  // Layout of the highest round seen/owned (empty before any takeover
  // when only the implicit initial layout exists).
  const std::vector<NodeId>& current_layout() const {
    static const std::vector<NodeId> kEmptyLayout;
    auto it = layouts_.find(round_);
    return it == layouts_.end() ? kEmptyLayout : it->second;
  }
  // Hot membership swaps applied by this node as coordinator
  // (docs/RECONFIG.md).
  std::uint64_t swaps_applied() const { return swaps_applied_; }
  // Stable checkpoint frontier heard from the coordinator; only
  // meaningful with cfg.frontier_gated_trim (docs/RECOVERY.md).
  InstanceId stable_frontier() const { return stable_frontier_; }
  // The lowest instance this acceptor can still serve to learners.
  InstanceId log_base() const {
    InstanceId base = decided_watermark_ > cfg_.trim_keep
                          ? decided_watermark_ - cfg_.trim_keep
                          : 0;
    if (cfg_.frontier_gated_trim && base > stable_frontier_) {
      base = stable_frontier_;
    }
    return base;
  }
  // Entries in the acceptor's two per-instance tables: its own instance
  // state and the durable records (one each per physical instance).
  std::size_t instance_table_size() const { return instances_.size(); }
  std::size_t record_count() const { return core_.storage().size(); }
  // Debug/diagnostic view of one instance's acceptor-side state.
  struct InstanceDebug {
    bool has_decided_vid = false;
    ValueId decided_vid = kNoValueId;
    bool has_record = false;
    bool has_mark = false;
    ValueId mark_vid = kNoValueId;
  };
  // State digest for the model checker (docs/MODEL_CHECKING.md): round
  // and layout state, acceptor marks and the durable core, coordinator
  // pipeline, and in-flight Phase 1 — folded in declaration order.
  // Timing (timestamps, timer ids, stats) is excluded so states that
  // differ only in wall-clock history hash alike.
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(static_cast<std::uint64_t>(role_));
    f.U32(round_);
    f.U64(layouts_.size());
    for (const auto& [r, lay] : layouts_) {
      f.U32(r);
      f.U64(lay.size());
      for (NodeId n : lay) f.U32(n);
    }
    f.U64(core_.Fingerprint());
    // The instance table folds as three instance-ordered lists: accept
    // marks, pending Phase 2Bs and decided vids. A mark folds durable =
    // true: it is only recorded once its accept is durable.
    const auto fold = [&](auto has, auto fields) {
      std::uint64_t n = 0;
      for (const auto& e : instances_) n += has(e.value);
      f.U64(n);
      for (const auto& [i, st] : instances_) {
        if (!has(st)) continue;
        f.U64(i);
        fields(st);
      }
    };
    fold([](const InstanceState& st) { return st.has_mark; }, [&f](const InstanceState& st) {
      f.U32(st.mark_round);
      f.U64(st.mark_vid);
      f.Bool(true);
    });
    fold([](const InstanceState& st) { return st.has_p2b; }, [&f](const InstanceState& st) {
      f.U32(st.p2b_round);
      f.U64(st.p2b_vid);
      f.U32(st.p2b_votes);
    });
    fold([](const InstanceState& st) { return st.decided; },
         [&f](const InstanceState& st) { f.U64(st.decided_vid); });
    f.U64(decided_watermark_);
    f.U64(stable_frontier_);
    f.U64(pending_.size());
    for (const auto& m : pending_) f.U64(m.Fingerprint());
    f.U64(outstanding_.size());
    for (const auto& [i, out] : outstanding_) {
      f.U64(i);
      f.U64(out.vid);
      f.U64(out.value.Fingerprint());
      f.Bool(out.self_durable);
      f.Bool(out.ring_voted);
    }
    f.U64(next_instance_);
    f.U64(vid_seq_);
    f.U64(to_announce_.size());
    for (const auto& d : to_announce_) {
      f.U64(d.instance);
      f.U64(d.vid);
    }
    f.U32(candidate_round_);
    f.U64(candidate_layout_.size());
    for (NodeId n : candidate_layout_) f.U32(n);
    f.U64(promises_.size());
    for (NodeId n : promises_) f.U32(n);
    f.U64(phase1_values_.size());
    for (const auto& [i, rv] : phase1_values_) {
      f.U64(i);
      f.U32(rv.first);
      f.U64(rv.second.Fingerprint());
    }
    f.U64(phase1_from_);
    return f.digest();
  }

  InstanceDebug DebugInstance(InstanceId i) const {
    static const InstanceState kNone;
    const InstanceState* st = instances_.Find(i);
    if (st == nullptr) st = &kNone;
    const paxos::AcceptorRecord* rec = core_.Get(i);
    return {st->decided, st->decided_vid, rec != nullptr && rec->accepted.has_value(),
            st->has_mark, st->mark_vid};
  }

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  struct Outstanding {
    ValueId vid = kNoValueId;
    paxos::Value value;
    TimePoint proposed_at{0};
    int retries = 0;
    bool self_durable = false;
    bool ring_voted = false;  // P2B with full votes received
  };

  // Acceptor-side state of one physical instance: this node's durable
  // acceptance (mark), the highest-vote Phase 2B waiting for it, and the
  // decided value-ID. Flat rather than three optionals to keep the
  // table's entries small.
  struct InstanceState {
    Round mark_round = 0;
    Round p2b_round = 0;
    ValueId mark_vid = kNoValueId;
    ValueId p2b_vid = kNoValueId;
    ValueId decided_vid = kNoValueId;
    std::uint32_t p2b_votes = 0;
    bool has_mark = false;
    bool has_p2b = false;
    bool decided = false;
  };

  // ---- Acceptor side ----
  void OnP2A(Env& env, const P2A& msg);
  void OnP2B(Env& env, NodeId from, const P2B& msg);
  void OnP1A(Env& env, NodeId from, const P1A& msg);
  void OnLearnReq(Env& env, NodeId from, const LearnReq& msg);
  void ForwardP2B(Env& env, InstanceId instance, InstanceState& st);
  void NoteDecided(const std::vector<Decided>& decided);
  void AdvanceDecidedWatermark();
  const std::vector<NodeId>* LayoutFor(Round r) const;
  int PositionIn(const std::vector<NodeId>& layout, NodeId n) const;

  // ---- Coordinator side ----
  void OnSubmit(Env& env, const Submit& msg);
  void TryProposeBatches(Env& env);
  void ProposeBatch(Env& env);
  void ProposeValue(Env& env, paxos::Value value);
  void SendP2A(Env& env, MessagePtr p2a);
  void CheckInstanceDecided(Env& env, InstanceId instance);
  void InstanceDecided(Env& env, InstanceId instance);
  void MaybeApplySwap(Env& env, const paxos::Value& value);
  void FlushDecisions(Env& env);
  std::vector<Decided> TakePiggyback();
  void OnDeltaTimer(Env& env);
  Duration DeltaPeriod() const;
  void OnBatchTimer(Env& env);
  void OnRetryTimer(Env& env);
  void OnLeaderHeartbeatTimer(Env& env);
  void BecomeFollower(Env& env, Round observed_round);
  ValueId NextVid();

  // ---- Fail-over ----
  void OnFollowerCheckTimer(Env& env);
  void StartTakeover(Env& env, std::vector<NodeId> layout);
  void OnP1B(Env& env, NodeId from, const P1B& msg);
  void FinishPhase1(Env& env);
  void CollectPromise(NodeId from, const std::vector<P1B::Entry>& entries);
  void CollectPromiseEntry(InstanceId i, Round vrnd, const paxos::Value& v);
  std::vector<NodeId> CurrentLayoutAlive(TimePoint now) const;

  RingConfig cfg_;
  std::unique_ptr<paxos::Storage> owned_storage_;
  paxos::AcceptorCore core_;
  NodeId self_ = kNoNode;

  // Round / layout state.
  Role role_ = Role::kFollower;
  Round round_ = 0;            // highest round seen/owned
  std::map<Round, std::vector<NodeId>> layouts_;

  // Acceptor state.
  InstanceLog<InstanceState> instances_;
  InstanceId decided_watermark_ = 0;  // everything below is decided
  // Highest stable checkpoint frontier advertised by the coordinator
  // (monotone; trimming is capped by it when frontier_gated_trim).
  InstanceId stable_frontier_ = 0;

  // Coordinator state.
  std::deque<paxos::ClientMsg> pending_;
  std::size_t pending_bytes_ = 0;
  std::map<InstanceId, Outstanding> outstanding_;
  InstanceId next_instance_ = 0;    // logical: skips advance by their span
  std::uint64_t vid_seq_ = 0;
  std::vector<Decided> to_announce_;
  double prev_k_ = 0;               // Algorithm 1 prev_k (logical instances)
  TimePoint last_sample_{0};
  double last_mu_ = 0;
  std::map<NodeId, TimePoint> member_last_ack_;
  TimerId batch_timer_ = kNoTimer;
  TimerId delta_timer_ = kNoTimer;
  TimerId retry_timer_ = kNoTimer;
  TimerId heartbeat_timer_ = kNoTimer;

  // Candidate (Phase 1) state.
  Round candidate_round_ = 0;
  std::vector<NodeId> candidate_layout_;
  std::set<NodeId> promises_;
  std::map<InstanceId, std::pair<Round, paxos::Value>> phase1_values_;
  InstanceId phase1_from_ = 0;
  TimerId phase1_timer_ = kNoTimer;

  // Follower failure-detection state.
  TimePoint last_leader_sign_{0};
  TimerId follower_timer_ = kNoTimer;

  // Stats.
  std::uint64_t decided_instances_ = 0;
  std::uint64_t decided_msgs_ = 0;
  std::uint64_t skipped_logical_ = 0;
  std::uint64_t skip_proposals_ = 0;
  std::uint64_t swaps_applied_ = 0;
  Histogram decide_latency_;

  // Registry instruments (resolved in OnStart; see docs/OBSERVABILITY.md).
  Counter* ctr_proposed_logical_ = nullptr;
  Counter* ctr_proposed_skip_logical_ = nullptr;
  Counter* ctr_decided_logical_ = nullptr;
  Counter* ctr_decided_msgs_ = nullptr;
  Counter* ctr_skip_proposals_ = nullptr;
  Counter* ctr_submits_rx_ = nullptr;
  Counter* ctr_p2a_rx_ = nullptr;
  Counter* ctr_p2b_rx_ = nullptr;
  Counter* ctr_retransmits_ = nullptr;
  Counter* ctr_takeovers_ = nullptr;
  Counter* ctr_swaps_ = nullptr;  // lazily created on the first swap
};

}  // namespace mrp::ringpaxos
