// Ring Paxos message set (Section III-B, Figure 3):
//
//  * Phase 2A is ip-multicast by the coordinator and carries the client
//    values (a batch), the value-ID consensus is executed on, and
//    piggybacked decisions of earlier instances;
//  * Phase 2B is a small message forwarded along the logical ring, each
//    acceptor appending its vote; the coordinator at the end of the ring
//    learns the outcome;
//  * explicit Decision messages are only flushed when there is no Phase
//    2A traffic to piggyback on;
//  * learner/acceptor recovery and coordinator fail-over messages.
//
// All messages carry the RingId so one node (e.g. a Multi-Ring learner
// or a shared spare acceptor) can participate in several rings.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/message.h"
#include "common/types.h"
#include "common/wire.h"
#include "paxos/value.h"

namespace mrp::ringpaxos {

// Base for every Ring Paxos message: tagged with the ring it belongs to.
struct RingMessage : MessageBase {
  RingId ring = 0;
  RingMessage() = default;
  explicit RingMessage(RingId r) : ring(r) {}
};

// Decode-time bound on a ring layout's length.
inline constexpr std::uint64_t kMaxLayout = 10'000;

// (instance, value-ID) pair announcing a decision.
struct Decided {
  InstanceId instance = 0;
  ValueId vid = kNoValueId;
  MRP_WIRE_FIELDS(instance, vid)
};

// Proposer -> coordinator: submit one client message for ordering.
struct Submit final : RingMessage {
  MRP_WIRE_MESSAGE(Submit, 1, "ring.Submit", ring, msg)

  paxos::ClientMsg msg;

  Submit(RingId r, paxos::ClientMsg m) : RingMessage(r), msg(std::move(m)) {}
};

// Coordinator -> proposer: all messages from `group` with seq <=
// `up_to_seq` have been decided (releases the proposer's window).
struct SubmitAck final : RingMessage {
  MRP_WIRE_MESSAGE(SubmitAck, 2, "ring.SubmitAck", ring, group, up_to_seq)

  GroupId group;
  std::uint64_t up_to_seq;

  SubmitAck(RingId r, GroupId g, std::uint64_t seq)
      : RingMessage(r), group(g), up_to_seq(seq) {}
};

// Phase 2A, ip-multicast on the ring's data channel. `layout` is the
// ring order for `round`, layout[0] being the coordinator.
struct P2A final : RingMessage {
  MRP_WIRE_MESSAGE(P2A, 3, "ring.P2A", ring, round, instance, vid, value, decided,
                   wire::Capped<kMaxLayout>(layout))

  Round round;
  InstanceId instance;
  ValueId vid;
  paxos::Value value;
  std::vector<Decided> decided;  // piggybacked decisions
  std::vector<NodeId> layout;

  P2A(RingId r, Round rnd, InstanceId inst, ValueId v, paxos::Value val,
      std::vector<Decided> dec, std::vector<NodeId> lay)
      : RingMessage(r),
        round(rnd),
        instance(inst),
        vid(v),
        value(std::move(val)),
        decided(std::move(dec)),
        layout(std::move(lay)) {}
};

// Phase 2B, forwarded along the ring. `votes` counts the acceptors
// (excluding the coordinator) that accepted (round, instance, vid).
struct P2B final : RingMessage {
  MRP_WIRE_MESSAGE(P2B, 4, "ring.P2B", ring, round, instance, vid, votes)

  Round round;
  InstanceId instance;
  ValueId vid;
  std::uint32_t votes;

  P2B(RingId r, Round rnd, InstanceId inst, ValueId v, std::uint32_t n)
      : RingMessage(r), round(rnd), instance(inst), vid(v), votes(n) {}
};

// Standalone decision announcement (flushed when no P2A piggyback is
// available within the flush interval).
struct DecisionMsg final : RingMessage {
  MRP_WIRE_MESSAGE(DecisionMsg, 5, "ring.Decision", ring, decided)

  std::vector<Decided> decided;

  DecisionMsg(RingId r, std::vector<Decided> dec)
      : RingMessage(r), decided(std::move(dec)) {}
};

// Phase 1A for every instance >= from_instance (multi-instance Phase 1,
// pre-executed by a new coordinator). Unicast to all universe members.
struct P1A final : RingMessage {
  MRP_WIRE_MESSAGE(P1A, 6, "ring.P1A", ring, round, from_instance,
                   wire::Capped<kMaxLayout>(layout))

  Round round;
  InstanceId from_instance;
  std::vector<NodeId> layout;  // ring order the coordinator will use

  P1A(RingId r, Round rnd, InstanceId from, std::vector<NodeId> lay)
      : RingMessage(r), round(rnd), from_instance(from), layout(std::move(lay)) {}
};

// Promise with every accepted value at instance >= from.
struct P1B final : RingMessage {
  MRP_WIRE_MESSAGE(P1B, 7, "ring.P1B", ring, round, accepted)

  struct Entry {
    InstanceId instance;
    Round vrnd;
    paxos::Value value;
    MRP_WIRE_FIELDS(instance, vrnd, value)
  };
  Round round;
  std::vector<Entry> accepted;

  P1B(RingId r, Round rnd, std::vector<Entry> acc)
      : RingMessage(r), round(rnd), accepted(std::move(acc)) {}
};

// Coordinator liveness + identity, multicast on the control channel.
struct Heartbeat final : RingMessage {
  MRP_WIRE_MESSAGE(Heartbeat, 8, "ring.Heartbeat", ring, round, coordinator)

  Round round;
  NodeId coordinator;

  Heartbeat(RingId r, Round rnd, NodeId c) : RingMessage(r), round(rnd), coordinator(c) {}
};

// Ring member -> coordinator, in response to Heartbeat.
struct HeartbeatAck final : RingMessage {
  MRP_WIRE_MESSAGE(HeartbeatAck, 9, "ring.HeartbeatAck", ring, round)

  Round round;

  HeartbeatAck(RingId r, Round rnd) : RingMessage(r), round(rnd) {}
};

// Learner -> preferential acceptor: retransmit decided values starting
// at `from_instance` (Ring Paxos loss recovery).
struct LearnReq final : RingMessage {
  MRP_WIRE_MESSAGE(LearnReq, 10, "ring.LearnReq", ring, from_instance, max_values)

  InstanceId from_instance;
  std::uint32_t max_values;

  LearnReq(RingId r, InstanceId from, std::uint32_t max)
      : RingMessage(r), from_instance(from), max_values(max) {}
};

// Acceptor -> learner: decided (instance, vid, value) triples.
struct LearnRep final : RingMessage {
  MRP_WIRE_MESSAGE(LearnRep, 11, "ring.LearnRep", ring, entries)

  struct Entry {
    InstanceId instance;
    ValueId vid;
    paxos::Value value;
    MRP_WIRE_FIELDS(instance, vid, value)
  };
  std::vector<Entry> entries;

  LearnRep(RingId r, std::vector<Entry> es) : RingMessage(r), entries(std::move(es)) {}
};

// Acceptor -> learner: the requested instances were trimmed from the
// acceptor's log. The decided stream is only replayable within
// [low_watermark, high_watermark]; a lagging learner fast-forwards to
// its midpoint (half the retention replayable, half headroom against
// the moving trim point). The skip is a gap: an smr::Replica's learner
// fetches a peer's state at a cut, or stops (docs/RECOVERY.md).
struct TrimNotice final : RingMessage {
  MRP_WIRE_MESSAGE(TrimNotice, 14, "ring.TrimNotice",
                   ring, low_watermark, high_watermark)

  InstanceId low_watermark;
  InstanceId high_watermark;

  TrimNotice(RingId r, InstanceId low, InstanceId high)
      : RingMessage(r), low_watermark(low), high_watermark(high) {}
};

// Delivery acknowledgement, learner -> proposer (used by windowed
// proposers; see the Figure 12 experiment, where the live ring throttles
// because the stalled learner stops acking).
struct DeliveryAck final : RingMessage {
  MRP_WIRE_MESSAGE(DeliveryAck, 12, "ring.DeliveryAck", ring, group, seq)

  GroupId group;
  std::uint64_t seq;

  DeliveryAck(RingId r, GroupId g, std::uint64_t s) : RingMessage(r), group(g), seq(s) {}
};

// `m` as a ring-scoped message, or nullptr if it is not one.
inline const RingMessage* AsRingMessage(const MessageBase& m) {
  switch (m.tag()) {
    case Submit::kTag:
    case SubmitAck::kTag:
    case P2A::kTag:
    case P2B::kTag:
    case DecisionMsg::kTag:
    case P1A::kTag:
    case P1B::kTag:
    case Heartbeat::kTag:
    case HeartbeatAck::kTag:
    case LearnReq::kTag:
    case LearnRep::kTag:
    case TrimNotice::kTag:
    case DeliveryAck::kTag:
      return static_cast<const RingMessage*>(&m);
    default:
      return nullptr;
  }
}

}  // namespace mrp::ringpaxos
