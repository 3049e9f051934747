// One populated instance of every wire message, built through the
// messages' public constructors: every collection non-empty, every
// optional set, ClientMsg payloads of several lengths (one long enough
// for a two-byte varint length). With `elide` the ClientMsg payloads
// keep their payload_size but carry no bytes, as the simulator sends
// them. Shared by the wire-format pin and the registry round-trip tests.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/message.h"
#include "paxos/messages.h"
#include "reconfig/messages.h"
#include "recovery/messages.h"
#include "ringpaxos/messages.h"
#include "session/messages.h"
#include "smr/command.h"

namespace mrp::wire_samples {

inline paxos::ClientMsg Msg(std::uint64_t seq, std::uint32_t size, bool elide) {
  paxos::ClientMsg m;
  m.group = 3;
  m.proposer = 41;
  m.seq = seq;
  m.sent_at = Micros(1500 + static_cast<std::int64_t>(seq));
  m.payload_size = size;
  if (!elide) {
    Bytes b(size);
    for (std::uint32_t i = 0; i < size; ++i) {
      b[i] = static_cast<std::uint8_t>(seq * 31 + i);
    }
    m.payload = std::move(b);
  }
  return m;
}

inline paxos::Value Batch(bool elide) {
  return paxos::Value::Batch({Msg(7, 5, elide), Msg(8, 200, elide), Msg(9, 0, elide)});
}

inline std::vector<std::pair<std::uint64_t, std::string>> Rows() {
  return {{1, "one"}, {22, ""}, {333, std::string(130, 'x')}};
}

inline std::vector<recovery::RingFrontier> Frontiers() { return {{0, 100}, {1, 250}}; }

inline std::vector<MessagePtr> WireSamples(bool elide) {
  namespace rp = ringpaxos;
  return {
      MakeMessage<rp::Submit>(2, Msg(5, 9, elide)),
      MakeMessage<rp::SubmitAck>(2, 3, 1234),
      MakeMessage<rp::P2A>(2, 7, 1000, 0x0000070000000001ull, Batch(elide),
                           std::vector<rp::Decided>{{998, 11}, {999, 12}},
                           std::vector<NodeId>{4, 5, 6}),
      MakeMessage<rp::P2B>(2, 7, 1000, 0x0000070000000001ull, 2),
      MakeMessage<rp::DecisionMsg>(2, std::vector<rp::Decided>{{1, 2}, {3, 4}, {5, 6}}),
      MakeMessage<rp::P1A>(2, 9, 500, std::vector<NodeId>{6, 4, 5}),
      MakeMessage<rp::P1B>(2, 9,
                           std::vector<rp::P1B::Entry>{{500, 7, Batch(elide)},
                                                       {501, 8, paxos::Value::Skip(4)}}),
      MakeMessage<rp::Heartbeat>(2, 9, 6),
      MakeMessage<rp::HeartbeatAck>(2, 9),
      MakeMessage<rp::LearnReq>(2, 77, 64),
      MakeMessage<rp::LearnRep>(2, std::vector<rp::LearnRep::Entry>{
                                       {77, 21, Batch(elide)}, {78, 22, paxos::Value::Skip(2)}}),
      MakeMessage<rp::DeliveryAck>(2, 3, 88),
      MakeMessage<smr::Response>(4242, 1, true, Rows(), 3),
      MakeMessage<rp::TrimNotice>(2, 100, 900),
      MakeMessage<smr::SnapshotReq>(1),
      MakeMessage<smr::SnapshotRep>(1, 5000, Rows()),
      MakeMessage<recovery::SnapshotRequest>(17, 2, 8),
      MakeMessage<recovery::SnapshotChunk>(17, 2, 9, Bytes{1, 2, 3, 4, 5}),
      MakeMessage<recovery::SnapshotDone>(17, 9, 4096, 0xfeedface12345678ull),
      MakeMessage<paxos::SubmitReq>(Msg(10, 3, elide)),
      MakeMessage<paxos::Phase1A>(12, 5),
      MakeMessage<paxos::Phase1B>(12, 5, 4, Batch(elide)),
      MakeMessage<paxos::Phase2A>(12, 5, Batch(elide)),
      MakeMessage<paxos::Phase2B>(12, 5),
      MakeMessage<paxos::DecisionMsg>(12, Batch(elide), 3),
      MakeMessage<paxos::LearnReq>(12),
      MakeMessage<recovery::CheckpointRequest>(6),
      MakeMessage<recovery::CheckpointReport>(6, 17, Frontiers()),
      MakeMessage<recovery::FrontierAdvert>(6, Frontiers()),
      MakeMessage<session::LeaseGrant>(3, 2, 41, 900, Millis(2500)),
      MakeMessage<session::LeaseAck>(3, 2),
      MakeMessage<session::LeaseRevoke>(3, 2),
      MakeMessage<session::SessionRead>(0x100000002ull, 55, 10, 20),
      MakeMessage<session::SessionReadRep>(55, 1, session::SessionReadRep::kOk, Rows()),
      MakeMessage<session::Rejected>(0x100000002ull, 56, session::Rejected::kOverload),
      MakeMessage<reconfig::RoutingUpdate>(8, Bytes{9, 8, 7}),
      MakeMessage<reconfig::HandoffRequest>(31, 2),
      MakeMessage<reconfig::PlanStatus>(31, true),
  };
}

}  // namespace mrp::wire_samples
