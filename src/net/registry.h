// The wire message registry: every message the codec can encode, in tag
// order. A message declares its tag, TypeName() and fields once, on its
// struct (MRP_WIRE_MESSAGE, common/wire.h); listing it here is what makes
// it encodable. tools/lint's codec-coverage rule checks that every
// message struct in src/*/messages.h and src/smr/command.h is listed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "paxos/messages.h"
#include "reconfig/messages.h"
#include "recovery/messages.h"
#include "ringpaxos/messages.h"
#include "session/messages.h"
#include "smr/command.h"

namespace mrp::net {

template <class... Ms>
struct MessageList {};

using WireMessages = MessageList<
    ringpaxos::Submit, ringpaxos::SubmitAck, ringpaxos::P2A, ringpaxos::P2B,
    ringpaxos::DecisionMsg, ringpaxos::P1A, ringpaxos::P1B,
    ringpaxos::Heartbeat, ringpaxos::HeartbeatAck, ringpaxos::LearnReq,
    ringpaxos::LearnRep, ringpaxos::DeliveryAck, smr::Response,
    ringpaxos::TrimNotice, recovery::SnapshotRequest, recovery::SnapshotChunk,
    recovery::SnapshotDone, paxos::SubmitReq, paxos::Phase1A, paxos::Phase1B,
    paxos::Phase2A, paxos::Phase2B, paxos::DecisionMsg, paxos::LearnReq,
    recovery::CheckpointRequest, recovery::CheckpointReport,
    recovery::FrontierAdvert, session::LeaseGrant, session::LeaseAck,
    session::LeaseRevoke, session::SessionRead, session::SessionReadRep,
    session::Rejected, reconfig::RoutingUpdate, reconfig::HandoffRequest,
    reconfig::PlanStatus>;

// Tags are non-zero and unique, so a tag names exactly one message type.
template <class... Ms>
constexpr bool TagsUnique(MessageList<Ms...>) {
  const std::uint8_t tags[] = {Ms::kTag...};
  for (std::size_t i = 0; i < sizeof...(Ms); ++i) {
    if (tags[i] == 0) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (tags[i] == tags[j]) return false;
    }
  }
  return true;
}
static_assert(TagsUnique(WireMessages{}), "wire message tags must be unique and non-zero");

}  // namespace mrp::net
