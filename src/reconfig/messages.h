// Wire messages of the elastic-reconfiguration subsystem
// (docs/RECONFIG.md).
//
// RoutingUpdate carries an encoded RingConfiguration (ring_view.h) to
// every role holding a RingHolder; versions make re-delivery and
// reordering harmless — Install() drops anything not strictly newer.
// HandoffRequest lets a repartition target ask the source replica to
// (re)announce its handoff checkpoint, and PlanStatus closes the loop
// from the target back to the RepartitionCoordinator once the moved
// range is installed. The bulk state itself rides the existing
// recovery::SnapshotRequest/Chunk/Done transfer, not new messages.
#pragma once

#include <cstdint>
#include <utility>

#include "common/bytes.h"
#include "common/message.h"
#include "common/types.h"
#include "common/wire.h"

namespace mrp::reconfig {

struct RoutingUpdate final : MessageBase {
  MRP_WIRE_MESSAGE(RoutingUpdate, 36, "reconfig.RoutingUpdate", version, config)

  std::uint64_t version = 0;
  Bytes config;  // RingConfiguration::Encode()

  RoutingUpdate(std::uint64_t v, Bytes c) : version(v), config(std::move(c)) {}
};

struct HandoffRequest final : MessageBase {
  MRP_WIRE_MESSAGE(HandoffRequest, 37, "reconfig.HandoffRequest", plan_id, target_group)

  std::uint64_t plan_id = 0;
  GroupId target_group = 0;

  HandoffRequest(std::uint64_t id, GroupId target)
      : plan_id(id), target_group(target) {}
};

struct PlanStatus final : MessageBase {
  MRP_WIRE_MESSAGE(PlanStatus, 38, "reconfig.PlanStatus", plan_id, ok)

  std::uint64_t plan_id = 0;
  bool ok = false;

  PlanStatus(std::uint64_t id, bool okay) : plan_id(id), ok(okay) {}
};

}  // namespace mrp::reconfig
