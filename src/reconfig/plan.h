// ReconfigPlan: a first-class reconfiguration command (docs/RECONFIG.md).
//
// Plans ride the ordered streams themselves: a split/merge is sealed by
// a kSeal SMR command in the source group's stream, and a hot
// ring-membership swap is an encoded ReconfigPlan submitted like any
// client value to the ring whose layout it changes — the decision
// instance is the serialization point, so every role observes the swap
// at the same position in the stream.
//
// The encoding is magic-prefixed: the first payload byte (0xFC) is an
// invalid smr::Command opcode, so SMR replicas that happen to deliver a
// plan payload discard it instead of misparsing it, and ring
// coordinators can recognize plan payloads in decided values with a
// one-byte probe.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.h"
#include "common/fingerprint.h"
#include "common/types.h"
#include "common/wire.h"

namespace mrp::reconfig {

struct ReconfigPlan {
  enum class Kind : std::uint8_t {
    kSplit = 0,  // move [lo, hi] out of source_group into target_group
    kMerge = 1,  // fold target_group's whole range back into source_group
    kSwap = 2,   // replace swap_out with swap_in in ring's layout
  };

  // First payload byte of every encoded plan; deliberately outside the
  // smr::Command opcode range.
  static constexpr std::uint8_t kMagic = 0xFC;

  std::uint8_t magic = kMagic;  // decode rejects any other first byte
  Kind kind = Kind::kSplit;
  std::uint64_t plan_id = 0;
  GroupId source_group = 0;
  GroupId target_group = 0;
  std::uint64_t lo = 0;  // moved key range (split/merge), inclusive
  std::uint64_t hi = 0;
  RingId ring = 0;          // swap: the ring reconfigured; split: target ring
  NodeId swap_out = kNoNode;
  NodeId swap_in = kNoNode;

  friend bool operator==(const ReconfigPlan&, const ReconfigPlan&) = default;

  static ReconfigPlan Split(std::uint64_t id, GroupId source, GroupId target,
                            std::uint64_t lo, std::uint64_t hi, RingId ring) {
    ReconfigPlan p;
    p.kind = Kind::kSplit;
    p.plan_id = id;
    p.source_group = source;
    p.target_group = target;
    p.lo = lo;
    p.hi = hi;
    p.ring = ring;
    return p;
  }

  static ReconfigPlan Swap(std::uint64_t id, RingId ring, NodeId out,
                           NodeId in) {
    ReconfigPlan p;
    p.kind = Kind::kSwap;
    p.plan_id = id;
    p.ring = ring;
    p.swap_out = out;
    p.swap_in = in;
    return p;
  }

  MRP_WIRE_FIELDS(magic, kind, plan_id, source_group, target_group, lo, hi,
                  ring, swap_out, swap_in)
  bool Valid() const { return magic == kMagic && kind <= Kind::kSwap; }

  Bytes Encode() const { return wire::Encode(*this); }

  // Cheap probe: does this payload carry an encoded plan?
  static bool IsPlanPayload(std::span<const std::uint8_t> data) {
    return !data.empty() && data[0] == kMagic;
  }

  static std::optional<ReconfigPlan> Decode(std::span<const std::uint8_t> data) {
    return wire::Decode<ReconfigPlan>(data);
  }

  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(static_cast<std::uint64_t>(kind));
    f.U64(plan_id);
    f.U32(source_group);
    f.U32(target_group);
    f.U64(lo);
    f.U64(hi);
    f.U32(ring);
    f.U32(swap_out);
    f.U32(swap_in);
    return f.digest();
  }
};

}  // namespace mrp::reconfig
