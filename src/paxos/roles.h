// Classic Paxos roles (Section III-A): per-instance two-phase consensus
// with majority quorums. This module is the correctness substrate Ring
// Paxos derives from; it favours clarity over throughput (no ring, no
// ip-multicast of Phase 2, per-instance Phase 1).
//
// Any proposer may propose; contention is resolved through rounds.
// Round r is owned by proposers[r % proposers.size()]; a preempted
// proposer retries with its next owned round. Decisions are multicast on
// `decision_channel`, to which learners subscribe.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/env.h"
#include "common/fingerprint.h"
#include "common/instance_window.h"
#include "common/types.h"
#include "paxos/acceptor_core.h"
#include "paxos/group_source.h"
#include "paxos/messages.h"
#include "paxos/storage.h"
#include "paxos/value.h"

namespace mrp::paxos {

struct PaxosConfig {
  std::vector<NodeId> proposers;
  std::vector<NodeId> acceptors;
  ChannelId decision_channel = 0;
  // Group tag stamped into decisions (Multi-Ring composition over plain
  // Paxos, the paper's Section VII conjecture).
  GroupId group = 0;
  // Skip policy (Algorithm 1) for Multi-Ring composition; 0 disables.
  // Only proposers[0] proposes skips.
  double lambda_per_sec = 0;
  Duration delta = Millis(1);
  Duration phase_timeout = Millis(50);
  std::size_t window = 8;          // concurrently running instances
  std::size_t batch_bytes = 8 * 1024;

  std::size_t Majority() const { return acceptors.size() / 2 + 1; }
};

class PaxosAcceptor final : public Protocol {
 public:
  // Uses an internal MemStorage unless an external Storage is supplied.
  PaxosAcceptor();
  explicit PaxosAcceptor(Storage& storage);

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  AcceptorCore& core() { return core_; }

  // State digest for the model checker (docs/MODEL_CHECKING.md): all
  // decision state lives in the core.
  std::uint64_t Fingerprint() const { return core_.Fingerprint(); }

 private:
  std::unique_ptr<Storage> owned_storage_;
  AcceptorCore core_;
  // Instruments (resolved in OnStart; see docs/OBSERVABILITY.md).
  Counter* ctr_p1a_ = nullptr;
  Counter* ctr_p2a_ = nullptr;
  Counter* ctr_promises_ = nullptr;
  Counter* ctr_nacks_ = nullptr;
  Counter* ctr_accepts_ = nullptr;
  Counter* ctr_rejects_ = nullptr;
};

class PaxosProposer final : public Protocol {
 public:
  PaxosProposer(PaxosConfig config, std::size_t my_index);

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  // Submits a client message (also reachable via SubmitReq).
  void Submit(Env& env, ClientMsg msg);

  std::uint64_t decided_count() const { return decided_count_; }

  // State digest for the model checker (docs/MODEL_CHECKING.md). Folds
  // the decision-relevant fields in declaration order; timer ids are
  // environment bookkeeping and excluded.
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(pending_.size());
    for (const auto& m : pending_) f.U64(m.Fingerprint());
    f.U64(running_.size());
    for (const auto& [inst, r] : running_) {
      f.U64(inst);
      f.U32(r.round);
      f.U32(r.attempt);
      f.U64(r.own.Fingerprint());
      f.U64(r.promises);
      f.U32(r.best_vrnd);
      f.Bool(r.adopted.has_value());
      if (r.adopted) f.U64(r.adopted->Fingerprint());
      f.Bool(r.phase2);
      f.U64(r.accepts);
      f.U64(r.proposing.Fingerprint());
      f.Bool(r.decided);
    }
    f.U64(decided_log_.size());
    for (const auto& [inst, v] : decided_log_) {
      f.U64(inst);
      f.U64(v.Fingerprint());
    }
    f.U64(next_instance_);
    f.U64(decided_count_);
    f.F64(logical_k_);
    f.F64(prev_k_);
    return f.digest();
  }

 private:
  struct Running {
    Round round = 0;
    std::uint32_t attempt = 0;
    Value own;                   // the batch this proposer wants decided
    // Phase 1 state.
    std::size_t promises = 0;
    Round best_vrnd = 0;
    std::optional<Value> adopted;
    bool phase2 = false;
    // Phase 2 state.
    std::size_t accepts = 0;
    Value proposing;             // value actually sent in Phase 2
    bool decided = false;
    TimerId timer = kNoTimer;
  };

  Round OwnedRound(std::uint32_t attempt) const;
  void TryStartInstances(Env& env);
  void StartInstanceWith(Env& env, Value value);
  void OnDeltaTimer(Env& env);
  void StartPhase1(Env& env, InstanceId instance);
  void StartPhase2(Env& env, InstanceId instance);
  void OnTimeout(Env& env, InstanceId instance);
  void Finish(Env& env, InstanceId instance);

  PaxosConfig cfg_;
  std::size_t my_index_;
  std::deque<ClientMsg> pending_;
  std::map<InstanceId, Running> running_;
  std::map<InstanceId, Value> decided_log_;  // serves learner recovery
  InstanceId next_instance_ = 0;
  std::uint64_t decided_count_ = 0;
  // Skip accounting (fractional carry, as in ringpaxos::RingNode).
  double logical_k_ = 0;
  double prev_k_ = 0;
  TimePoint last_sample_{0};
  // Instruments (resolved in OnStart).
  Counter* ctr_phase1_started_ = nullptr;
  Counter* ctr_phase2_started_ = nullptr;
  Counter* ctr_timeouts_ = nullptr;
  Counter* ctr_decided_ = nullptr;
  Counter* ctr_preempted_ = nullptr;
};

// The classic-Paxos learner: orders one Multi-Ring group from the
// proposers' decision multicasts (the paper's Section VII conjecture:
// any atomic broadcast protocol can order a group). It is a GroupSource,
// so a MergeLearner hosts it — alone for a single-group learner, or
// next to Ring Paxos rings. Proposers stamp decisions with the group id
// and pad the consensus rate with skip instances exactly like a Ring
// Paxos coordinator, so the deterministic merge works unchanged.
//
// Unlike Ring Paxos, plain Paxos instance ids stay dense (a skip is one
// instance whose value spans many logical instances), so no window
// skipping is needed here.
class PaxosGroupSource final : public GroupSource {
 public:
  struct Options {
    GroupId group = 0;
    // Proposers queried for lost decisions; empty disables recovery.
    std::vector<NodeId> proposers;
  };

  explicit PaxosGroupSource(Options opts) : opts_(std::move(opts)) {}

  bool OnMessage(Env& env, NodeId from, const MessagePtr& m) override;
  bool HasReady() const override { return window_.Peek() != nullptr; }
  std::optional<Ready> Pop() override;
  std::size_t buffered_msgs() const override { return buffered_; }
  // Gap recovery: if the window has not moved since the previous tick
  // and something is buffered behind a gap, ask a random proposer to
  // retransmit from the gap.
  void Tick(Env& env) override;
  GroupId group() const override { return opts_.group; }
  InstanceId next_instance() const override { return window_.next(); }

  // State digest for the model checker (docs/MODEL_CHECKING.md).
  std::uint64_t Fingerprint() const override {
    Fingerprinter f;
    f.U64(window_.next());
    f.U64(window_.buffered());
    window_.ForEachPresent([&f](InstanceId i, const Value& v) {
      f.U64(i);
      f.U64(v.Fingerprint());
    });
    return f.digest();
  }

 private:
  Options opts_;
  InstanceWindow<Value> window_;
  std::size_t buffered_ = 0;
  InstanceId last_next_ = 0;  // window base at the previous tick
};

}  // namespace mrp::paxos
