// Acceptor durable state. In-memory mode (a majority of acceptors never
// fails simultaneously) completes writes immediately; recoverable mode
// funnels writes through a disk with finite bandwidth — the resource
// that bounds Recoverable Ring Paxos at ~400 Mbps in Figure 1.
//
// Storage owns the one in-memory AcceptorRecord table (an InstanceLog,
// common/instance_window.h, one entry per physical instance) for every
// implementation; subclasses only decide how a write becomes durable
// (Persist) and may clamp Trim.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/instance_window.h"
#include "common/types.h"
#include "paxos/value.h"

namespace mrp::paxos {

// Per-instance acceptor record (Paxos: rnd, vrnd, vval).
struct AcceptorRecord {
  Round promised = 0;        // highest round promised (rnd)
  Round accepted_round = 0;  // round of the accepted value (vrnd)
  std::optional<Value> accepted;  // accepted value (vval)

  MRP_WIRE_FIELDS(promised, accepted_round, accepted)
};

class Storage {
 public:
  virtual ~Storage() = default;

  // Records the state for `instance` and makes it durable; `done` runs
  // once the write is stable (single-threaded with the protocol).
  // `wire_bytes` is the serialized record size used for disk bandwidth
  // accounting.
  void Put(InstanceId instance, AcceptorRecord record, std::size_t wire_bytes,
           std::function<void()> done) {
    AcceptorRecord& stored = records_[instance];
    stored = std::move(record);
    Persist(instance, stored, wire_bytes, std::move(done));
  }

  // In-memory view of the latest state for `instance` (records are
  // cached in memory in every mode).
  const AcceptorRecord* Get(InstanceId instance) const { return records_.Find(instance); }

  // Discards records below `instance` (checkpointing support).
  virtual void Trim(InstanceId below) { records_.Trim(below); }

  // Visits every record with instance >= from, in instance order. The
  // record may be mutated in place (used by multi-instance Phase 1 to
  // raise promises; the promise itself is re-persisted by the caller's
  // next Put, which is sufficient because we do not model replay-from-
  // disk recovery — see DESIGN.md).
  template <typename F>
  void ForEachFrom(InstanceId from, F&& fn) {
    for (auto it = records_.LowerBound(from); it != records_.end(); ++it) {
      fn(it->id, it->value);
    }
  }

  std::size_t size() const { return records_.size(); }

 protected:
  // Makes `record`, already stored for `instance`, durable and runs
  // `done` once it is.
  virtual void Persist(InstanceId instance, const AcceptorRecord& record,
                       std::size_t wire_bytes, std::function<void()> done) = 0;

  InstanceLog<AcceptorRecord> records_;
};

// In-memory storage: writes complete synchronously.
class MemStorage final : public Storage {
 protected:
  void Persist(InstanceId, const AcceptorRecord&, std::size_t,
               std::function<void()> done) override {
    if (done) done();
  }
};

}  // namespace mrp::paxos
