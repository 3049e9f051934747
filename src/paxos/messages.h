// Classic Paxos message set (Section III-A). Ring Paxos has its own,
// larger message set in ringpaxos/messages.h; this one is used by the
// plain Paxos substrate and by tests that validate the acceptor core.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "common/message.h"
#include "common/types.h"
#include "common/wire.h"
#include "paxos/value.h"

namespace mrp::paxos {

// Client value submission (proposer -> coordinator).
struct SubmitReq final : MessageBase {
  MRP_WIRE_MESSAGE(SubmitReq, 20, "paxos.Submit", msg)

  ClientMsg msg;

  explicit SubmitReq(ClientMsg m) : msg(std::move(m)) {}
};

struct Phase1A final : MessageBase {
  MRP_WIRE_MESSAGE(Phase1A, 21, "paxos.P1A", instance, round)

  InstanceId instance;
  Round round;

  Phase1A(InstanceId i, Round r) : instance(i), round(r) {}
};

struct Phase1B final : MessageBase {
  MRP_WIRE_MESSAGE(Phase1B, 22, "paxos.P1B", instance, round, accepted_round, accepted)

  InstanceId instance;
  Round round;            // the round being promised
  Round accepted_round;   // vrnd (0 if none)
  std::optional<Value> accepted;  // vval

  Phase1B(InstanceId i, Round r, Round vrnd, std::optional<Value> vval)
      : instance(i), round(r), accepted_round(vrnd), accepted(std::move(vval)) {}
};

struct Phase2A final : MessageBase {
  MRP_WIRE_MESSAGE(Phase2A, 23, "paxos.P2A", instance, round, value)

  InstanceId instance;
  Round round;
  Value value;

  Phase2A(InstanceId i, Round r, Value v) : instance(i), round(r), value(std::move(v)) {}
};

struct Phase2B final : MessageBase {
  MRP_WIRE_MESSAGE(Phase2B, 24, "paxos.P2B", instance, round)

  InstanceId instance;
  Round round;

  Phase2B(InstanceId i, Round r) : instance(i), round(r) {}
};

struct DecisionMsg final : MessageBase {
  MRP_WIRE_MESSAGE(DecisionMsg, 25, "paxos.Decision", instance, group, value)

  InstanceId instance;
  Value value;
  // Group ordered by this Paxos instance (tags the decision stream when
  // plain Paxos backs a Multi-Ring group; see multiring/paxos_group.h).
  GroupId group;

  DecisionMsg(InstanceId i, Value v, GroupId g = 0)
      : instance(i), value(std::move(v)), group(g) {}
};

// Learner gap recovery: asks a proposer to retransmit decisions starting
// at `from_instance` (lost Decision multicasts otherwise stall the
// learner's in-order delivery window).
struct LearnReq final : MessageBase {
  MRP_WIRE_MESSAGE(LearnReq, 26, "paxos.LearnReq", from_instance)

  InstanceId from_instance;

  explicit LearnReq(InstanceId from) : from_instance(from) {}
};

}  // namespace mrp::paxos
