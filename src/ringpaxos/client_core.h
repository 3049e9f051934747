// ClientCore: the one place a submitter learns who a ring's coordinator
// is (docs/PROTOCOL.md, "Finding the coordinator"). Ring followers drop
// submissions, so every role that submits values — Proposer,
// WorkloadDriver, smr::KvClient, the admission Gateway, the
// RepartitionCoordinator and SubmitSwap — sends through one of these.
//
// It keeps a per-ring coordinator hint, seeded from the configuration
// and overwritten by every control-channel Heartbeat the node hears
// whose round is not below the hint's (a resumed stale coordinator's
// heartbeats do not move it back);
// stamps each ClientMsg with proposer, seq and sent_at; fires the
// on_submit oracle tap for fresh submissions; and sends the Submit to
// the hinted coordinator, or to the admission gateway when one is set.
//
// The core is passive: no timers, no metrics. Retry policy stays with
// the role that owns the request (a stale hint heals on the next
// heartbeat, and the role's retry then reaches the new coordinator).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/env.h"
#include "common/fingerprint.h"
#include "common/types.h"
#include "paxos/value.h"
#include "ringpaxos/messages.h"

namespace mrp::ringpaxos {

class ClientCore {
 public:
  using SubmitTap = std::function<void(const paxos::ClientMsg&)>;

  // `gateway` != kNoNode: every submission goes to that admission
  // gateway, which forwards it to the coordinator.
  explicit ClientCore(SubmitTap on_submit = {}, NodeId gateway = kNoNode)
      : on_submit_(std::move(on_submit)), gateway_(gateway) {}

  // Seeds `ring`'s hint unless the ring is already known: a heartbeat's
  // view beats a configured guess.
  void Seed(RingId ring, NodeId coordinator);
  // Current hint for `ring`, kNoNode when unknown.
  NodeId coordinator(RingId ring) const;

  // Control-channel input. Returns true iff `m` is a Heartbeat that moved
  // its ring's hint; every other message, and a Heartbeat of a lower
  // round than the hint's, is ignored and returns false.
  bool OnMessage(const MessageBase& m);

  // Sets proposer = self and sent_at = now, and takes the next of this
  // core's seqs (1, 2, ...) unless the caller set its own seq first
  // (WorkloadDriver's tenant-in-seq encoding).
  void Stamp(Env& env, paxos::ClientMsg& msg);
  // Fresh submission of a Stamp()ed message: fires on_submit, sends it.
  void Submit(Env& env, RingId ring, paxos::ClientMsg msg);
  // Sends a ready-made Submit: a retransmission, or the Gateway
  // forwarding a client's.
  void Forward(Env& env, RingId ring, MessagePtr submit);

  std::uint64_t last_seq() const { return seq_; }

  // Folds the coordinator hints into a role's state digest.
  void Fold(Fingerprinter& f) const {
    f.U64(hints_.size());
    for (const auto& [ring, hint] : hints_) {
      f.U32(ring);
      f.U32(hint.coordinator);
      f.U32(hint.round);
    }
  }

 private:
  SubmitTap on_submit_;
  NodeId gateway_;
  std::uint64_t seq_ = 0;
  struct Hint {
    NodeId coordinator;
    Round round;  // of the heartbeat that set it; 0 when seeded
  };
  // ring -> hint. Every submission looks its ring up, and one
  // WorkloadDriver submits to up to a hundred rings (scale_suite's
  // scale_100rings), so a tree, not a scan; ordered so Fold is too.
  std::map<RingId, Hint> hints_;
};

}  // namespace mrp::ringpaxos
