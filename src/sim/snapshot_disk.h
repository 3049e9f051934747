// Simulated-disk checkpoint persistence: snapshot writes go through the
// node's disk (SimNode::DiskWrite, the cost model SimDiskStorage uses),
// so the checkpoint subsystem's disk footprint shows up in simulated
// time — a learner reports a checkpoint as durable only after the
// simulated write completes (docs/RECOVERY.md).
#pragma once

#include <map>
#include <utility>

#include "recovery/snapshot_store.h"
#include "sim/network.h"

namespace mrp::sim {

class SimSnapshotPersistence final : public recovery::SnapshotPersistence {
 public:
  explicit SimSnapshotPersistence(SimNode& node) : node_(node) {}

  void Persist(std::uint64_t id, const Bytes& bytes,
               std::function<void()> done) override {
    blobs_[id] = bytes;
    node_.DiskWrite(bytes.size(), std::move(done));
  }

  std::optional<Bytes> LoadLatest() override {
    if (blobs_.empty()) return std::nullopt;
    return blobs_.rbegin()->second;
  }

 private:
  SimNode& node_;
  std::map<std::uint64_t, Bytes> blobs_;
};

}  // namespace mrp::sim
