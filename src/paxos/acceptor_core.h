// The Paxos acceptor state machine, factored out of any transport so the
// same promise/accept rules back both the classic Paxos acceptor and the
// Ring Paxos acceptor. All durability goes through Storage; callbacks
// run once the write is stable.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "common/fingerprint.h"
#include "common/types.h"
#include "paxos/storage.h"
#include "paxos/value.h"

namespace mrp::paxos {

class AcceptorCore {
 public:
  explicit AcceptorCore(Storage& storage) : storage_(storage) {}

  struct PromiseResult {
    bool promised = false;      // false => round too low, reject
    Round accepted_round = 0;   // vrnd of previously accepted value
    std::optional<Value> accepted;  // vval, if any
  };

  // Phase 1: promise round `r` for `instance` unless a higher round was
  // already promised. `done` fires after the promise is durable.
  void HandlePhase1(InstanceId instance, Round r,
                    std::function<void(PromiseResult)> done) {
    const AcceptorRecord* rec = storage_.Get(instance);
    // Open-ended promises: a promise at `min_promised_` covers every
    // instance without a dedicated record (multi-instance Phase 1).
    const Round promised = rec ? rec->promised : min_promised_;
    if (r < promised) {
      done(PromiseResult{false, 0, std::nullopt});
      return;
    }
    AcceptorRecord updated = rec ? *rec : AcceptorRecord{};
    updated.promised = r;
    PromiseResult result{true, updated.accepted_round, updated.accepted};
    storage_.Put(instance, std::move(updated), kPromiseBytes,
                 [done = std::move(done), result = std::move(result)]() mutable {
                   done(std::move(result));
                 });
  }

  // Multi-instance Phase 1: promise round `r` for every instance >=
  // `from`. Returns false if a higher promise exists. On success all
  // records with instance >= from and an accepted value are reported via
  // `accepted_out` so the new coordinator can re-propose them.
  bool HandlePhase1Range(
      InstanceId from, Round r,
      const std::function<void(InstanceId, Round, const Value&)>& accepted_out) {
    if (r < min_promised_) return false;
    min_promised_ = r;
    storage_.ForEachFrom(from, [&](InstanceId inst, AcceptorRecord& rec) {
      if (rec.promised < r) rec.promised = r;
      if (rec.accepted) accepted_out(inst, rec.accepted_round, *rec.accepted);
    });
    return true;
  }

  // Phase 2: accept (r, value) for `instance` unless a higher round was
  // promised. `done(accepted)` fires after the value is durable (or
  // immediately with false on rejection).
  void HandlePhase2(InstanceId instance, Round r, Value value,
                    std::function<void(bool)> done) {
    const AcceptorRecord* rec = storage_.Get(instance);
    const Round promised = rec ? rec->promised : min_promised_;
    if (r < promised) {
      done(false);
      return;
    }
    AcceptorRecord updated;
    updated.promised = r;
    updated.accepted_round = r;
    const std::size_t bytes = kPromiseBytes + value.WireSize();
    updated.accepted = std::move(value);
    storage_.Put(instance, std::move(updated), bytes,
                 [done = std::move(done)] { done(true); });
  }

  const AcceptorRecord* Get(InstanceId instance) const {
    return storage_.Get(instance);
  }
  Round min_promised() const { return min_promised_; }
  Storage& storage() { return storage_; }
  const Storage& storage() const { return storage_; }

  // Digest of the acceptor's durable decision state: the open-ended
  // promise plus every retained (instance, rnd, vrnd, vval) record, in
  // instance order (docs/MODEL_CHECKING.md).
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U32(min_promised_);
    // ForEachFrom is non-const because Phase 1 raises promises in
    // place; this visitor only reads.
    storage_.ForEachFrom(0, [&f](InstanceId i, AcceptorRecord& rec) {
      f.U64(i);
      f.U32(rec.promised);
      f.U32(rec.accepted_round);
      f.Bool(rec.accepted.has_value());
      if (rec.accepted) f.U64(rec.accepted->Fingerprint());
    });
    return f.digest();
  }

 private:
  static constexpr std::size_t kPromiseBytes = 24;

  Storage& storage_;
  // Lowest round promised for all instances (open-ended Phase 1).
  Round min_promised_ = 0;
};

}  // namespace mrp::paxos
