// Values decided by consensus. A decided value is either a batch of
// client messages (the common case; the prototype batches ~8 kB per
// instance, footnote 1 of the paper) or a skip marker covering a range
// of logical instances (Multi-Ring Paxos, Algorithm 1 lines 16-18,
// batched as described in Section IV-D).
#pragma once

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/fingerprint.h"
#include "common/types.h"
#include "common/wire.h"

namespace mrp::paxos {

// One application-level message multicast to a group. The payload is
// optional: throughput experiments track only payload_size (the
// simulator charges bandwidth/CPU for it without materialising bytes),
// while the SMR layer and the real runtime carry real payloads.
struct ClientMsg {
  GroupId group = 0;
  NodeId proposer = kNoNode;
  std::uint64_t seq = 0;        // proposer-local sequence number
  TimePoint sent_at{0};         // multicast() call time, for latency
  std::uint32_t payload_size = 0;
  // Empty or payload.size() == payload_size. PayloadBuf so a zero-copy
  // decode can view the receive frame instead of copying (net/codec.h).
  PayloadBuf payload;

  MRP_WIRE_FIELDS(group, proposer, seq, sent_at, payload_size,
                  wire::Payload(payload, payload_size))
  bool Valid() const { return payload.empty() || payload.size() == payload_size; }
  // Encoded size, counting an elided payload as present.
  std::size_t WireSize() const { return wire::Size(*this); }

  friend bool operator==(const ClientMsg& a, const ClientMsg& b) {
    return a.group == b.group && a.proposer == b.proposer && a.seq == b.seq &&
           a.payload_size == b.payload_size && a.payload == b.payload;
  }

  // Content digest over the fields operator== compares (sent_at is
  // timing, not identity). Used by the protocol roles' state
  // fingerprints (docs/MODEL_CHECKING.md).
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U32(group);
    f.U32(proposer);
    f.U64(seq);
    f.U32(payload_size);
    f.Bytes(payload.data(), payload.size());
    return f.digest();
  }
};

struct Value {
  enum class Kind : std::uint8_t { kBatch = 0, kSkip = 1 };

  Kind kind = Kind::kBatch;
  // For kSkip: the number of logical consensus instances this single
  // physical decision covers (>= 1). Instance k deciding Skip{c} stands
  // for instances k .. k+c-1 all deciding the empty value.
  std::uint64_t skip_count = 0;
  std::vector<ClientMsg> msgs;

  MRP_WIRE_FIELDS(kind, skip_count, msgs)
  bool Valid() const { return kind <= Kind::kSkip; }

  static Value Batch(std::vector<ClientMsg> msgs) {
    Value v;
    v.kind = Kind::kBatch;
    v.msgs = std::move(msgs);
    return v;
  }
  static Value Skip(std::uint64_t count) {
    Value v;
    v.kind = Kind::kSkip;
    v.skip_count = count;
    return v;
  }

  bool is_skip() const { return kind == Kind::kSkip; }

  // Logical instances consumed by this decision (Algorithm 1 line 33's
  // ki advances by this much).
  std::uint64_t LogicalInstances() const { return is_skip() ? skip_count : 1; }

  std::size_t PayloadBytes() const {
    std::size_t total = 0;
    for (const auto& m : msgs) total += m.payload_size;
    return total;
  }

  std::size_t WireSize() const { return wire::Size(*this); }

  friend bool operator==(const Value& a, const Value& b) {
    return a.kind == b.kind && a.skip_count == b.skip_count && a.msgs == b.msgs;
  }

  // Content digest mirroring operator==.
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(static_cast<std::uint64_t>(kind));
    f.U64(skip_count);
    f.U64(msgs.size());
    for (const auto& m : msgs) f.U64(m.Fingerprint());
    return f.digest();
  }
};

}  // namespace mrp::paxos
