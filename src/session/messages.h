// Wire messages of the client-session control plane (docs/SESSIONS.md):
// coordinator read leases granted to a replica, lease-local linearizable
// reads, and admission-control rejections. Session open/close and the
// session-stamped commands themselves ride inside smr::Command payloads
// on the ordered atomic-multicast stream, so they need no messages here.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/message.h"
#include "common/types.h"
#include "common/wire.h"

namespace mrp::session {

// Grantor -> replica: the replica may serve local reads for `group`
// until `expires_at` (sim time, same clock in the simulator; a real
// deployment would subtract a clock-skew bound). A read is linearizable
// only once the replica's applied frontier covers `grant_point` — every
// command decided before the grant is visible to the read.
struct LeaseGrant final : MessageBase {
  MRP_WIRE_MESSAGE(LeaseGrant, 30, "session.LeaseGrant",
                   group, epoch, holder, grant_point, expires_at)

  GroupId group;
  std::uint64_t epoch;     // bumps on revoke/holder change; renewals keep it
  NodeId holder;
  InstanceId grant_point;  // grantor's decided frontier at grant time
  TimePoint expires_at;

  LeaseGrant(GroupId g, std::uint64_t e, NodeId h, InstanceId gp, TimePoint exp)
      : group(g), epoch(e), holder(h), grant_point(gp), expires_at(exp) {}
};

// Replica -> grantor: the grant was adopted.
struct LeaseAck final : MessageBase {
  MRP_WIRE_MESSAGE(LeaseAck, 31, "session.LeaseAck", group, epoch)

  GroupId group;
  std::uint64_t epoch;

  LeaseAck(GroupId g, std::uint64_t e) : group(g), epoch(e) {}
};

// Grantor -> replica: stop serving local reads immediately. Carries the
// epoch being invalidated; grants with a higher epoch re-establish.
struct LeaseRevoke final : MessageBase {
  MRP_WIRE_MESSAGE(LeaseRevoke, 32, "session.LeaseRevoke", group, epoch)

  GroupId group;
  std::uint64_t epoch;

  LeaseRevoke(GroupId g, std::uint64_t e) : group(g), epoch(e) {}
};

// Client -> lease-holding replica: serve [kmin, kmax] locally, without
// going through the rings.
struct SessionRead final : MessageBase {
  MRP_WIRE_MESSAGE(SessionRead, 33, "session.SessionRead",
                   session_id, req_id, kmin, kmax)

  std::uint64_t session_id;
  std::uint64_t req_id;
  std::uint64_t kmin, kmax;

  SessionRead(std::uint64_t sid, std::uint64_t rid, std::uint64_t lo,
              std::uint64_t hi)
      : session_id(sid), req_id(rid), kmin(lo), kmax(hi) {}
};

// Replica -> client. kNoLease tells the client to fall back to a
// through-the-ring read (lease lost, expired, or never granted here).
struct SessionReadRep final : MessageBase {
  MRP_WIRE_MESSAGE(SessionReadRep, 34, "session.SessionReadRep",
                   req_id, partition, status, rows)

  enum Status : std::uint8_t { kOk = 0, kNoLease = 1 };

  std::uint64_t req_id;
  GroupId partition;
  std::uint8_t status;
  std::vector<std::pair<std::uint64_t, std::string>> rows;

  SessionReadRep(std::uint64_t rid, GroupId p, std::uint8_t st,
                 std::vector<std::pair<std::uint64_t, std::string>> r = {})
      : req_id(rid), partition(p), status(st), rows(std::move(r)) {}
  bool Valid() const { return status <= kNoLease; }
};

// Gateway -> client: the submission was shed instead of enqueued
// (admission control, docs/SESSIONS.md). The client retries the same
// session seqno with exponential backoff.
struct Rejected final : MessageBase {
  MRP_WIRE_MESSAGE(Rejected, 35, "session.Rejected", session_id, req_id, code)

  enum Code : std::uint8_t { kOverload = 0 };

  std::uint64_t session_id;
  std::uint64_t req_id;
  std::uint8_t code;

  Rejected(std::uint64_t sid, std::uint64_t rid, std::uint8_t c)
      : session_id(sid), req_id(rid), code(c) {}
};

}  // namespace mrp::session
