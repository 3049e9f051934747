// GroupSource: the abstraction the deterministic merge
// (multiring::MergeLearner) consumes — an ordered stream of consensus
// decisions (batches or skips) for one group. The paper conjectures
// (Section VII) that any atomic broadcast protocol can order a group;
// this interface realizes that: Ring Paxos (ringpaxos::LearnerCore) is
// the default implementation, PaxosGroupSource (paxos/roles.h) orders a
// group with plain Paxos, and multiring::LcrGroupSource with LCR. A
// single-group learner is a merge learner of one source.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/env.h"
#include "common/types.h"
#include "paxos/value.h"

namespace mrp::paxos {

class GroupSource {
 public:
  struct Ready {
    InstanceId instance;
    Value value;
  };

  virtual ~GroupSource() = default;

  // Called once when the hosting learner starts (sources embedding an
  // active protocol — e.g. an LCR ring member — hook their timers here).
  virtual void OnStart(Env& env) { (void)env; }

  // Feeds one message; returns true if this source consumed it.
  virtual bool OnMessage(Env& env, NodeId from, const MessagePtr& m) = 0;

  // Head of the decided stream, in instance order. Pop returns nullopt
  // when the next instance is not yet decided/known.
  virtual bool HasReady() const = 0;
  virtual std::optional<Ready> Pop() = 0;

  // Messages buffered (decided-but-unconsumed plus cached-undecided).
  virtual std::size_t buffered_msgs() const = 0;

  // Periodic maintenance (gap recovery).
  virtual void Tick(Env& env) = 0;

  // Identifier used for the deterministic merge order (sources are
  // consumed in ascending group order).
  virtual GroupId group() const = 0;

  // Groups the hosting learner subscribed to on this source; empty =
  // all. Messages of other groups are ordered but discarded.
  virtual const std::vector<GroupId>& subscribe_only() const {
    static const std::vector<GroupId> kEmpty;
    return kEmpty;
  }

  // Ring id stamped into delivery acknowledgements for this source's
  // messages (sources not backed by a ring return their group id).
  virtual RingId ack_ring() const { return group(); }

  // ---- Checkpoint & recovery hooks (docs/RECOVERY.md) ----
  // Next instance of the decided stream this source will surface; the
  // merge records it as the source's checkpoint-cut position.
  virtual InstanceId next_instance() const { return 0; }
  // Positions the source at `at` (instances below are covered by a
  // restored checkpoint), before OnStart or on a running source whose
  // host restores a later checkpoint. Sources that cannot resume ignore
  // it and replay.
  virtual void StartAt(InstanceId at) { (void)at; }
  // Logical instances this source jumped over because its ordering
  // protocol no longer held them (a lag past the acceptors' retention):
  // a gap in the delivered stream.
  virtual InstanceId fast_forwarded() const { return 0; }

  // State digest for the model checker (docs/MODEL_CHECKING.md). The
  // default covers only the consumption cursor; sources with internal
  // buffering override with a digest of their full decision state.
  virtual std::uint64_t Fingerprint() const { return next_instance(); }
};

}  // namespace mrp::paxos
