#include "recovery/snapshot_store.h"

#include <utility>

namespace mrp::recovery {

void SnapshotStore::Put(const Checkpoint& cp, std::function<void()> durable) {
  Entry e{cp.id, cp.Encode()};
  const Bytes& encoded = e.encoded;
  if (persistence_ != nullptr) {
    persistence_->Persist(cp.id, encoded, std::move(durable));
  }
  entries_.push_back(std::move(e));
  while (entries_.size() > keep_) entries_.pop_front();
  if (persistence_ == nullptr && durable) durable();
}

const Bytes* SnapshotStore::Encoded(std::uint64_t id) const {
  if (entries_.empty()) return nullptr;
  if (id == 0) return &entries_.back().encoded;
  for (const Entry& e : entries_) {
    if (e.id == id) return &e.encoded;
  }
  return nullptr;
}

}  // namespace mrp::recovery
