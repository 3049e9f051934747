// The in-memory ordered key-value store each replica applies decided
// commands to. Deterministic: identical command sequences produce
// identical stores (asserted by the state-machine-replication tests via
// the Fingerprint).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/wire.h"
#include "smr/command.h"

namespace mrp::smr {

class KvStore {
 public:
  void Insert(Key k, std::string v) { data_[k] = std::move(v); }

  bool Delete(Key k) { return data_.erase(k) > 0; }

  std::vector<std::pair<Key, std::string>> Query(Key kmin, Key kmax,
                                                 std::size_t limit = 0) const {
    std::vector<std::pair<Key, std::string>> out;
    for (auto it = data_.lower_bound(kmin); it != data_.end() && it->first <= kmax;
         ++it) {
      out.emplace_back(it->first, it->second);
      if (limit > 0 && out.size() >= limit) break;
    }
    return out;
  }

  std::size_t size() const { return data_.size(); }

  // Full-store serialization for checkpoints (docs/RECOVERY.md):
  // deterministic (map order) and round-trip exact, so a restored
  // store's Fingerprint matches the source's.
  MRP_WIRE_FIELDS(wire::Capped<50'000'000>(data_))
  Bytes Serialize() const { return wire::Encode(*this); }

  // Replaces the store contents; false (store untouched) on malformed
  // input.
  bool Deserialize(const Bytes& bytes) {
    auto fresh = wire::Decode<KvStore>(bytes);
    if (!fresh) return false;
    data_ = std::move(fresh->data_);
    return true;
  }

  // Order-sensitive content hash (FNV-1a over keys and values).
  std::uint64_t Fingerprint() const {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](const void* p, std::size_t n) {
      const auto* b = static_cast<const unsigned char*>(p);
      for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ULL;
      }
    };
    for (const auto& [k, v] : data_) {
      mix(&k, sizeof k);
      mix(v.data(), v.size());
    }
    return h;
  }

 private:
  std::map<Key, std::string> data_;
};

// Contiguous range partitioning of the 64-bit key space over P
// partitions (paper Section II-C: partition Pi owns a key range).
class Partitioning {
 public:
  explicit Partitioning(std::uint32_t partitions, Key space = 1'000'000)
      : partitions_(partitions), space_(space) {}

  std::uint32_t partitions() const { return partitions_; }
  Key space() const { return space_; }

  GroupId PartitionOf(Key k) const {
    const Key width = space_ / partitions_;
    const Key idx = std::min<Key>(k / width, partitions_ - 1);
    return static_cast<GroupId>(idx);
  }

  std::pair<Key, Key> RangeOf(GroupId p) const {
    const Key width = space_ / partitions_;
    const Key lo = static_cast<Key>(p) * width;
    const Key hi = (p + 1 == partitions_) ? space_ - 1 : lo + width - 1;
    return {lo, hi};
  }

  // True if [kmin, kmax] is fully inside one partition.
  bool SinglePartition(Key kmin, Key kmax) const {
    return PartitionOf(kmin) == PartitionOf(kmax);
  }

 private:
  std::uint32_t partitions_;
  Key space_;
};

}  // namespace mrp::smr
