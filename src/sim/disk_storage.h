// Acceptor storage backed by the simulated disk: sequential writes are
// buffered and drain at the configured disk bandwidth, so recoverable
// acceptors apply backpressure through the consensus pipeline once the
// disk is the binding resource (Figure 1, "disk bound").
#pragma once

#include <functional>
#include <utility>

#include "paxos/storage.h"
#include "sim/network.h"

namespace mrp::sim {

class SimDiskStorage final : public paxos::Storage {
 public:
  explicit SimDiskStorage(SimNode& node) : node_(node) {}

  std::uint64_t total_bytes_written() const { return total_bytes_; }

  // Fault injection: no write issued before `until` completes earlier
  // than it (a stalled controller). Queued writes push out behind it.
  void StallUntil(TimePoint until) {
    disk_free_at_ = std::max(disk_free_at_, until);
  }

 protected:
  void Persist(InstanceId, const paxos::AcceptorRecord&, std::size_t wire_bytes,
               std::function<void()> done) override {
    const auto& spec = node_.spec();
    const Duration write = spec.disk_op_latency +
                           Duration(static_cast<std::int64_t>(
                               static_cast<double>(wire_bytes) * 8.0 /
                               spec.disk_bw_bps * 1e9));
    disk_free_at_ = std::max(node_.now(), disk_free_at_) + write;
    total_bytes_ += wire_bytes;
    if (done) {
      node_.network().scheduler().At(
          disk_free_at_, [&node = node_, done = std::move(done)] {
            if (!node.down()) done();
          });
    }
  }

 private:
  SimNode& node_;
  TimePoint disk_free_at_{0};
  std::uint64_t total_bytes_ = 0;
};

}  // namespace mrp::sim
