// HashApp: a tiny deterministic Snapshottable used by the fuzzer, the
// determinism probe, the recovery tests and the recovery bench.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/wire.h"
#include "paxos/value.h"
#include "recovery/snapshottable.h"

namespace mrp::recovery {

// Deterministic application state: an FNV-1a chain over every delivered
// message plus a counter. Two learners with identical subscriptions
// reach identical (count, digest) at the same delivery index, and a
// restored HashApp continues the chain exactly where the snapshot cut
// it — which makes divergence after recovery loudly visible.
class HashApp final : public Snapshottable {
 public:
  void Apply(GroupId group, const paxos::ClientMsg& m) {
    Mix(group);
    Mix(m.proposer);
    Mix(m.seq);
    for (std::uint8_t b : m.payload) {
      digest_ ^= b;
      digest_ *= 1099511628211ULL;
    }
    ++count_;
  }

  MRP_WIRE_FIELDS(count_, digest_)
  Bytes SnapshotState() const override { return wire::Encode(*this); }

  bool RestoreState(const Bytes& bytes) override {
    auto fresh = wire::Decode<HashApp>(bytes);
    if (!fresh) return false;
    *this = *fresh;
    return true;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t digest() const { return digest_; }

 private:
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (v >> (8 * i)) & 0xff;
      digest_ *= 1099511628211ULL;
    }
  }

  std::uint64_t count_ = 0;
  std::uint64_t digest_ = 14695981039346656037ULL;
};

}  // namespace mrp::recovery
