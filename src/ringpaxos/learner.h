// Ring Paxos learner. LearnerCore is the transport-free state machine:
// it caches the client values received by ip-multicast (Phase 2A),
// matches them with decision announcements (piggybacked or standalone),
// exposes the decided stream in instance order, and recovers lost
// messages from a preferential acceptor (Section III-B). It is the
// Ring Paxos paxos::GroupSource: the Multi-Ring merge learner
// (src/multiring) hosts one core per subscribed ring and consumes them
// with the deterministic merge — a single-ring learner is a merge
// learner of one ring.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/fingerprint.h"
#include "common/instance_window.h"
#include "common/types.h"
#include "paxos/group_source.h"
#include "paxos/value.h"
#include "ringpaxos/config.h"
#include "ringpaxos/messages.h"

namespace mrp::ringpaxos {

class LearnerCore final : public paxos::GroupSource {
 public:
  explicit LearnerCore(LearnerOptions opts) : opts_(std::move(opts)) {}

  // Feeds one message; returns true if it was consumed (this ring's
  // P2A, Decision, LearnRep, TrimNotice, Heartbeat for coordinator
  // tracking).
  bool OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  // Next decided instance whose value is known, if the head of the
  // instance stream is ready.
  bool HasReady() const override {
    const Cell* c = window_.Peek();
    return c != nullptr && c->value.has_value();
  }
  std::optional<Ready> Pop() override {
    if (!HasReady()) return std::nullopt;
    const InstanceId instance = window_.next();
    Cell cell = window_.Pop();
    const std::size_t n = MsgsIn(*cell.value);
    buffered_msgs_ -= std::min(buffered_msgs_, n);
    if (cell.value->is_skip() && cell.value->skip_count > 1) {
      // One physical decision covers skip_count logical instances; the
      // ids inside the range were never proposed individually. Any
      // stale cells discarded by the advance release their accounting.
      for (const Cell& dropped : window_.Skip(cell.value->skip_count - 1)) {
        Release(dropped);
      }
    }
    Ready out{instance, std::move(*cell.value)};
    if (opts_.test_corrupt_instance != 0 && !test_corrupted_ &&
        instance >= opts_.test_corrupt_instance && !out.value.is_skip() &&
        !out.value.msgs.empty()) {
      // Injected agreement bug (see LearnerOptions::test_corrupt_instance).
      test_corrupted_ = true;
      out.value.msgs[0].seq += 1'000'000'000ULL;
    }
    return out;
  }

  InstanceId next_instance() const override { return window_.next(); }

  // Positions the core at `at`: every instance below is covered by a
  // checkpoint (docs/RECOVERY.md) and will never be popped. Moving
  // backwards drops the window; the instances from `at` on are then
  // relearned from the value cache and the acceptors.
  void StartAt(InstanceId at) override;

  // Messages buffered: decided-but-unconsumed plus cached-undecided.
  std::size_t buffered_msgs() const override { return buffered_msgs_; }
  InstanceId fast_forwarded() const override { return fast_forwarded_; }

  // Gap recovery; the hosting learner calls it every tick.
  void Tick(Env& env) override;

  GroupId group() const override { return opts_.ring.group; }
  const std::vector<GroupId>& subscribe_only() const override {
    return opts_.subscribe_only;
  }
  RingId ack_ring() const override { return opts_.ring.ring; }

  // State digest for the model checker (docs/MODEL_CHECKING.md): the
  // instance window, the value cache, and the recovery cursor state.
  std::uint64_t Fingerprint() const override {
    Fingerprinter f;
    f.U64(window_.next());
    f.U64(window_.buffered());
    window_.ForEachPresent([&f](InstanceId i, const Cell& c) {
      f.U64(i);
      f.U64(c.vid);
      f.Bool(c.value.has_value());
      if (c.value) f.U64(c.value->Fingerprint());
    });
    f.U64(cache_.size());
    for (const auto& [i, cached] : cache_) {
      f.U64(i);
      f.U32(cached.round);
      f.U64(cached.vid);
      f.U64(cached.value.Fingerprint());
    }
    f.U32(coordinator_hint_);
    f.U64(buffered_msgs_);
    f.U64(last_next_);
    f.U64(fast_forwarded_);
    return f.digest();
  }

 private:
  struct Cell {
    ValueId vid = kNoValueId;
    std::optional<paxos::Value> value;
  };
  struct Cached {
    Round round = 0;
    ValueId vid = kNoValueId;
    paxos::Value value;
  };

  void PlaceDecision(InstanceId instance, ValueId vid);
  // Releases the buffered-message accounting of a cell leaving the
  // window unpopped.
  void Release(const Cell& cell) {
    if (cell.value.has_value()) {
      buffered_msgs_ -= std::min(buffered_msgs_, MsgsIn(*cell.value));
    }
  }
  void TrimCache();
  // True when an instance between the head and the newest decision in
  // the window lacks its value (a skip covers its whole range).
  bool HasHole() const;
  std::size_t MsgsIn(const paxos::Value& v) const { return v.msgs.size(); }
  std::size_t BytesIn(const paxos::Value& v) const {
    std::size_t b = 0;
    for (const auto& m : v.msgs) b += m.payload_size;
    return b;
  }
  void SyncCacheGauges();
  // Instruments resolve lazily on the first message/tick rather than in
  // OnStart, so a core that never sees its ring registers nothing. Names
  // are ring-qualified because one merge learner node hosts a core per
  // ring in a single registry.
  void EnsureCounters(Env& env);

  LearnerOptions opts_;
  InstanceWindow<Cell> window_;
  std::map<InstanceId, Cached> cache_;
  NodeId coordinator_hint_ = kNoNode;
  std::size_t buffered_msgs_ = 0;
  std::size_t cache_bytes_ = 0;  // payload bytes held in cache_
  bool test_corrupted_ = false;

  // Stuck detection for recovery.
  InstanceId last_next_ = 0;
  int recovery_flip_ = 0;
  // Consecutive recovery rounds blocked on one instance; past
  // kStuckEscalation the head-of-line chunk is swept to every server at
  // once. Excluded from Fingerprint(), like recovery_flip_: pure retry
  // targeting.
  static constexpr std::uint64_t kStuckEscalation = 8;
  std::uint64_t stuck_rounds_ = 0;
  InstanceId fast_forwarded_ = 0;

  // Registry instruments (lazy; see docs/OBSERVABILITY.md).
  bool counters_resolved_ = false;
  Counter* ctr_cache_hits_ = nullptr;
  Counter* ctr_cache_misses_ = nullptr;
  Counter* ctr_recovery_rounds_ = nullptr;
  Counter* ctr_recovery_reqs_ = nullptr;
  Counter* ctr_fast_forwarded_ = nullptr;
  Gauge* gauge_cache_entries_ = nullptr;
  Gauge* gauge_cache_bytes_ = nullptr;
};

}  // namespace mrp::ringpaxos
