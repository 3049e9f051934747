// Acceptor storage backed by the simulated disk: sequential writes are
// buffered and drain at the configured disk bandwidth, so recoverable
// acceptors apply backpressure through the consensus pipeline once the
// disk is the binding resource (Figure 1, "disk bound"). The cost model
// and the write queue are the node's (SimNode::DiskWrite).
#pragma once

#include <functional>
#include <utility>

#include "paxos/storage.h"
#include "sim/network.h"

namespace mrp::sim {

class SimDiskStorage final : public paxos::Storage {
 public:
  explicit SimDiskStorage(SimNode& node) : node_(node) {}

 protected:
  void Persist(InstanceId, const paxos::AcceptorRecord&, std::size_t wire_bytes,
               std::function<void()> done) override {
    node_.DiskWrite(wire_bytes, std::move(done));
  }

 private:
  SimNode& node_;
};

}  // namespace mrp::sim
