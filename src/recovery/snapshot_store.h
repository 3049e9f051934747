// SnapshotStore: the per-learner checkpoint archive. Keeps the last few
// encoded checkpoints in memory (older transfers pinned to a recently
// superseded id can still be served) and forwards each new checkpoint to
// an optional persistence backend. The backend is an abstract interface
// for the same reason paxos::Storage is one: protocol code must not
// depend on src/runtime, so the durable implementations live with their
// environments — runtime::FileSnapshotPersistence appends to a
// FileStorage log, sim::SimSnapshotPersistence charges the simulated
// disk (bandwidth + fixed op latency) before completing.
//
// A checkpoint only becomes *reportable* (and thus able to advance the
// cluster trim frontier) once the backend acknowledges durability; the
// CheckpointAgent in recoverable_learner.cc relies on the completion
// callback for that ordering.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "common/bytes.h"
#include "recovery/checkpoint.h"

namespace mrp::recovery {

class SnapshotPersistence {
 public:
  virtual ~SnapshotPersistence() = default;

  // Makes `bytes` durable under `id` and invokes `done` when it is.
  // `done` may fire synchronously (in-memory backends) or later
  // (sim-disk cost model, real fsync).
  virtual void Persist(std::uint64_t id, const Bytes& bytes,
                       std::function<void()> done) = 0;

  // The newest previously persisted checkpoint, if any (used by a
  // restarting node to reload its own archive before asking peers).
  virtual std::optional<Bytes> LoadLatest() = 0;
};

class SnapshotStore {
 public:
  // `keep`: encoded checkpoints retained for serving; older entries are
  // dropped oldest-first. `persistence` is borrowed and optional.
  explicit SnapshotStore(std::size_t keep = 2,
                         SnapshotPersistence* persistence = nullptr)
      : keep_(keep < 1 ? 1 : keep), persistence_(persistence) {}

  // Archives `cp`; `durable` fires once the persistence backend (if
  // any) acknowledges. Ids must be unique.
  void Put(const Checkpoint& cp, std::function<void()> durable);

  // Encoded bytes of checkpoint `id`, or of the newest one when id == 0.
  // Returns nullptr when unknown/already dropped.
  const Bytes* Encoded(std::uint64_t id) const;
  std::size_t count() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t id = 0;
    Bytes encoded;
  };

  std::size_t keep_;
  SnapshotPersistence* persistence_;
  std::deque<Entry> entries_;  // oldest first
};

}  // namespace mrp::recovery
