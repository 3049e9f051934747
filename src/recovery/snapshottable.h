// Snapshottable: the application-state capture/restore contract of the
// checkpoint & recovery subsystem (docs/RECOVERY.md). A checkpoint pairs
// a merge-consistent cut of the ring streams with one opaque state blob
// produced by this interface; restoring the blob and resuming the merge
// at the cut must be equivalent to having delivered every message below
// the cut. smr::Replica implements it by serializing its KvStore and
// SessionTable; the same bytes bootstrap a late-joining replica, catch
// up a replica that fell behind the acceptors' retention and, for the
// moved range, a repartition target.
//
// Header-only on purpose: implementers (src/smr) must not have to link
// the recovery library to expose a snapshot.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace mrp::recovery {

class Snapshottable {
 public:
  virtual ~Snapshottable() = default;

  // Serializes the full application state. Must be deterministic: two
  // replicas that applied the same delivery prefix must produce the
  // same bytes (the RecoveryOracle and the peer-transfer path rely on
  // it).
  virtual Bytes SnapshotState() const = 0;

  // Replaces the application state with a previously captured snapshot.
  // Returns false (leaving the state unspecified) on malformed input.
  virtual bool RestoreState(const Bytes& state) = 0;

  // An encoded checkpoint the application keeps under an id of its own
  // (a repartition handoff under its plan id), served to peers verbatim
  // for as long as it returns one; nullptr = none under that id.
  virtual const Bytes* Handoff(std::uint64_t id) const {
    (void)id;
    return nullptr;
  }
};

}  // namespace mrp::recovery
