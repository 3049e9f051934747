// Wire messages of the checkpoint & recovery subsystem (docs/RECOVERY.md).
//
// Checkpoint control plane: the CheckpointCoordinator unicasts
// CheckpointRequest{epoch} to every recovery-enabled learner; each
// learner answers (after taking a durable checkpoint at its next merge
// turn boundary) with CheckpointReport carrying its per-ring cut
// instances; the coordinator multicasts the cluster-wide minimum as a
// FrontierAdvert on each ring's control channel — the only authority
// under which acceptors and FileStorage may trim (the safety tie).
//
// Snapshot transfer data plane: a recovering learner pulls the latest
// checkpoint from a peer with SnapshotRequest and receives it as
// indexed SnapshotChunk frames followed by a SnapshotDone trailer whose
// digest authenticates the reassembled blob. Chunks are idempotent and
// self-describing, so loss, reordering and duplication are handled by
// re-requesting from the first gap (recovery_manager.h).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/message.h"
#include "common/types.h"
#include "common/wire.h"

namespace mrp::recovery {

// One ring's checkpoint cut position: every instance below
// `next_instance` is covered by the reporting learner's checkpoint.
struct RingFrontier {
  RingId ring = 0;
  InstanceId next_instance = 0;
  MRP_WIRE_FIELDS(ring, next_instance)

  friend bool operator==(const RingFrontier& a, const RingFrontier& b) {
    return a.ring == b.ring && a.next_instance == b.next_instance;
  }
};

// Decode-time bound on a frontier list's length.
inline constexpr std::uint64_t kMaxFrontiers = 100'000;

struct CheckpointRequest final : MessageBase {
  MRP_WIRE_MESSAGE(CheckpointRequest, 27, "recovery.CheckpointRequest", epoch)

  std::uint64_t epoch = 0;

  explicit CheckpointRequest(std::uint64_t e) : epoch(e) {}
};

struct CheckpointReport final : MessageBase {
  MRP_WIRE_MESSAGE(CheckpointReport, 28, "recovery.CheckpointReport",
                   epoch, checkpoint_id,
                   wire::Capped<kMaxFrontiers>(frontiers))

  std::uint64_t epoch = 0;
  std::uint64_t checkpoint_id = 0;
  std::vector<RingFrontier> frontiers;

  CheckpointReport(std::uint64_t e, std::uint64_t id,
                   std::vector<RingFrontier> f)
      : epoch(e), checkpoint_id(id), frontiers(std::move(f)) {}
};

struct FrontierAdvert final : MessageBase {
  MRP_WIRE_MESSAGE(FrontierAdvert, 29, "recovery.FrontierAdvert",
                   epoch, wire::Capped<kMaxFrontiers>(frontiers))

  std::uint64_t epoch = 0;
  std::vector<RingFrontier> frontiers;  // stable (cluster-min) per ring

  FrontierAdvert(std::uint64_t e, std::vector<RingFrontier> f)
      : epoch(e), frontiers(std::move(f)) {}
};

struct SnapshotRequest final : MessageBase {
  MRP_WIRE_MESSAGE(SnapshotRequest, 17, "recovery.SnapshotRequest",
                   checkpoint_id, from_chunk, max_chunks)

  std::uint64_t checkpoint_id = 0;  // 0 = the peer's latest checkpoint
  std::uint32_t from_chunk = 0;
  std::uint32_t max_chunks = 0;  // flow-control window per request

  SnapshotRequest(std::uint64_t id, std::uint32_t from, std::uint32_t max)
      : checkpoint_id(id), from_chunk(from), max_chunks(max) {}
};

struct SnapshotChunk final : MessageBase {
  MRP_WIRE_MESSAGE(SnapshotChunk, 18, "recovery.SnapshotChunk",
                   checkpoint_id, index, total_chunks, data)

  std::uint64_t checkpoint_id = 0;
  std::uint32_t index = 0;
  std::uint32_t total_chunks = 0;
  Bytes data;

  SnapshotChunk(std::uint64_t id, std::uint32_t i, std::uint32_t total,
                Bytes d)
      : checkpoint_id(id), index(i), total_chunks(total), data(std::move(d)) {}
};

// total_chunks == 0 means "checkpoint unavailable" (the peer has no
// checkpoint yet, or the pinned id was already dropped from its store);
// the requester resets and retries — against the next peer if it keeps
// happening.
struct SnapshotDone final : MessageBase {
  MRP_WIRE_MESSAGE(SnapshotDone, 19, "recovery.SnapshotDone",
                   checkpoint_id, total_chunks, total_bytes, digest)

  std::uint64_t checkpoint_id = 0;
  std::uint32_t total_chunks = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t digest = 0;  // FNV-1a over the full encoded checkpoint

  SnapshotDone(std::uint64_t id, std::uint32_t total, std::uint64_t bytes,
               std::uint64_t dig)
      : checkpoint_id(id), total_chunks(total), total_bytes(bytes),
        digest(dig) {}
};

}  // namespace mrp::recovery
