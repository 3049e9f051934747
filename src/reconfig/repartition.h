// RepartitionCoordinator: drives one live group split/merge end to end
// (docs/RECONFIG.md) without stopping client traffic.
//
//   kSealing  — submit the kSeal command into the source group's own
//               ordered stream (retried to the source ring's current
//               coordinator, which a ringpaxos::ClientCore follows
//               through heartbeats: the coordinator's node must subscribe
//               to the source ring's control channel) until a source
//               replica acknowledges. The seal's log
//               position IS the cut: moved keys leave the source store
//               there, and later writes into the range are redirected.
//   kFlipped  — install the successor RingConfiguration into the local
//               RingHolder, broadcast it (RoutingUpdate) to every role
//               in `notify`, and probe the target replica
//               (HandoffRequest) until it reports the handoff installed
//               (PlanStatus). The bulk state rides the existing chunked
//               snapshot transfer between the replicas themselves.
//   kDone     — fire on_done.
//
// Everything is tick-driven and idempotent, so a paused or revived
// coordinator (the fuzzer's coordinator-crash fault) simply resumes
// where it left off; duplicate seals are absorbed by the plan id and
// stale RoutingUpdates by the configuration version.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/env.h"
#include "common/fingerprint.h"
#include "reconfig/messages.h"
#include "reconfig/plan.h"
#include "reconfig/ring_view.h"
#include "ringpaxos/client_core.h"
#include "ringpaxos/config.h"
#include "ringpaxos/messages.h"

namespace mrp::reconfig {

// Submits a kSwap plan as an ordinary client value to `ring` through
// `core` (a fresh seq per attempt); the coordinator of that ring applies
// it at the decision instance (RingNode::MaybeApplySwap).
void SubmitSwap(Env& env, ringpaxos::ClientCore& core,
                const ringpaxos::RingConfig& ring, const ReconfigPlan& plan);

struct RepartitionConfig {
  ReconfigPlan plan;
  // Ring ordering the source group (seal submission goes here).
  ringpaxos::RingConfig source_ring;
  // Local routing slot, flipped at cutover. Borrowed, may be null.
  RingHolder* holder = nullptr;
  // Successor configuration installed and broadcast after the seal.
  RingConfiguration next;
  // Target-partition replica probed for handoff completion.
  NodeId target_replica = kNoNode;
  // Roles (clients, gateways, other holders) receiving RoutingUpdate.
  std::vector<NodeId> notify;
  Duration retry = Millis(100);
  Duration start_delay = Millis(0);
  std::function<void(const ReconfigPlan&)> on_done;
  // Oracle tap (src/check): fired for every seal submission (retries are
  // fresh submissions with new seqs), feeding the decision-integrity
  // oracle's proposed set. Optional.
  std::function<void(const paxos::ClientMsg&)> on_submit;
};

class RepartitionCoordinator final : public Protocol {
 public:
  explicit RepartitionCoordinator(RepartitionConfig cfg)
      : cfg_(std::move(cfg)), core_(cfg_.on_submit) {}

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  enum class Phase : std::uint8_t { kIdle = 0, kSealing, kFlipped, kDone };
  Phase phase() const { return phase_; }
  bool done() const { return phase_ == Phase::kDone; }
  std::uint64_t seal_attempts() const { return seal_attempts_; }

  // State digest for the model checker (docs/MODEL_CHECKING.md).
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(static_cast<std::uint64_t>(phase_));
    f.U64(cfg_.plan.Fingerprint());
    f.U64(seal_attempts_);
    f.U64(updates_sent_);
    core_.Fold(f);
    return f.digest();
  }

 private:
  void Begin(Env& env);
  void Tick(Env& env);
  void SubmitSeal(Env& env);
  void BroadcastRouting(Env& env);

  RepartitionConfig cfg_;
  ringpaxos::ClientCore core_;
  Phase phase_ = Phase::kIdle;
  std::uint64_t seal_attempts_ = 0;
  std::uint64_t updates_sent_ = 0;
  Counter* ctr_seal_attempts_ = nullptr;
  Counter* ctr_done_ = nullptr;
};

}  // namespace mrp::reconfig
