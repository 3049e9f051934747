// Commands and responses of the replicated key-value service used to
// illustrate atomic multicast (paper Section II-C): insert(k), delete(k)
// and query(kmin, kmax). Commands are serialized into the payload of the
// atomic-multicast client messages; responses travel directly from a
// replica to the client.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/message.h"
#include "common/types.h"
#include "common/wire.h"

namespace mrp::smr {

using Key = std::uint64_t;

struct Command {
  enum class Op : std::uint8_t {
    kInsert = 0,
    kDelete = 1,
    kQuery = 2,
    // Session lifecycle rides the ordered stream so every replica agrees
    // on which sessions are live (docs/SESSIONS.md).
    kSessionOpen = 3,
    kSessionClose = 4,
    // Repartition seal (docs/RECONFIG.md): ordered through the source
    // group's own stream, so every source replica seals the moved range
    // [kmin, kmax] at the same log position. req_id carries the plan id.
    kSeal = 5,
  };

  Op op = Op::kInsert;
  Key key = 0;           // insert/delete
  std::string value;     // insert
  Key kmin = 0, kmax = 0;  // query range (inclusive)
  std::uint64_t req_id = 0;
  NodeId client = kNoNode;
  // Exactly-once stamp (docs/SESSIONS.md). 0/0 = sessionless command:
  // no dedup, the pre-session behaviour. A retried session command
  // keeps its (session_id, session_seq) under a fresh multicast seq.
  std::uint64_t session_id = 0;
  std::uint64_t session_seq = 0;
  // Seal only: the group the sealed range moves to.
  GroupId target_group = 0;

  static Command Insert(Key k, std::string v) {
    Command c;
    c.op = Op::kInsert;
    c.key = k;
    c.value = std::move(v);
    return c;
  }
  static Command Delete(Key k) {
    Command c;
    c.op = Op::kDelete;
    c.key = k;
    return c;
  }
  static Command Query(Key kmin, Key kmax) {
    Command c;
    c.op = Op::kQuery;
    c.kmin = kmin;
    c.kmax = kmax;
    return c;
  }
  static Command SessionOpen(std::uint64_t sid) {
    Command c;
    c.op = Op::kSessionOpen;
    c.session_id = sid;
    return c;
  }
  static Command SessionClose(std::uint64_t sid) {
    Command c;
    c.op = Op::kSessionClose;
    c.session_id = sid;
    return c;
  }
  static Command Seal(std::uint64_t plan_id, Key kmin, Key kmax,
                      GroupId target) {
    Command c;
    c.op = Op::kSeal;
    c.kmin = kmin;
    c.kmax = kmax;
    c.req_id = plan_id;
    c.target_group = target;
    return c;
  }

  MRP_WIRE_FIELDS(op, key, value, kmin, kmax, req_id, client, session_id,
                  session_seq, target_group)
  bool Valid() const { return op <= Op::kSeal; }

  Bytes Encode() const {
    ByteWriter w(wire::Size(*this));
    wire::Put(w, *this);
    return w.take();
  }

  static std::optional<Command> Decode(std::span<const std::uint8_t> data) {
    ByteReader r(data);
    Command c;
    if (!wire::Get(r, c)) return std::nullopt;
    return c;
  }
};

// Replica -> client. For multi-partition queries the client collects one
// response per involved partition. `redirect` != kNoGroup is a routing
// hint on a refused command: the key range moved to that group
// (docs/RECONFIG.md) — retry there, don't count this as a result.
struct Response final : MessageBase {
  MRP_WIRE_MESSAGE(Response, 13, "smr.Response", req_id, partition, ok, rows, redirect)

  std::uint64_t req_id;
  GroupId partition;
  bool ok;
  std::vector<std::pair<Key, std::string>> rows;  // query results
  GroupId redirect = kNoGroup;

  Response(std::uint64_t id, GroupId p, bool okay,
           std::vector<std::pair<Key, std::string>> r = {},
           GroupId redir = kNoGroup)
      : req_id(id), partition(p), ok(okay), rows(std::move(r)),
        redirect(redir) {}
};

// New replica -> peer replica: request a full state snapshot of the
// partition (bootstrap after a late join; the atomic-multicast log
// below the acceptors' trim point is no longer replayable).
struct SnapshotReq final : MessageBase {
  MRP_WIRE_MESSAGE(SnapshotReq, 15, "smr.SnapshotReq", partition)

  GroupId partition;

  explicit SnapshotReq(GroupId p) : partition(p) {}
};

// Peer replica -> new replica: the partition state. Replay of the tail
// of the multicast stream on top of this converges because the service
// commands are idempotent (insert/delete by key).
struct SnapshotRep final : MessageBase {
  MRP_WIRE_MESSAGE(SnapshotRep, 16, "smr.SnapshotRep",
                   partition, applied, wire::Capped<10'000'000>(rows))

  GroupId partition;
  std::uint64_t applied;  // commands applied when the snapshot was taken
  std::vector<std::pair<Key, std::string>> rows;

  SnapshotRep(GroupId p, std::uint64_t a, std::vector<std::pair<Key, std::string>> r)
      : partition(p), applied(a), rows(std::move(r)) {}
};

}  // namespace mrp::smr
