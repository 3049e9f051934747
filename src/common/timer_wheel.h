// Hierarchical timer wheel: the one event/timer store in the tree. It
// backs sim::Scheduler (docs/SIMULATOR.md) and runtime::EventLoop, and
// yields records in exact (time, insertion sequence) order, so identical
// inputs always fire identically.
//
// Layout: kLevels wheels of kSlots slots each. A level-k slot spans
// 2^(kGranularityBits + k*kSlotBits) ns, so with the defaults
// (1024 ns granularity, 64 slots, 4 levels) the wheels cover ~17 s of
// future; anything beyond parks in an exact-ordered overflow heap and
// is consulted (not cascaded) at pop time. Insert is O(1); popping pays
// O(1) amortised bitmap scans plus an O(s log s) sort the first time a
// slot of s records becomes current — s is the number of records sharing
// one 1024 ns tick, which stays small in real deployments. The current
// slot drains through a cursor, so same-tick bursts cost no memmoves.
//
// The wheel intentionally does not quantise: `at` values keep full
// nanosecond resolution, ticks only bucket them. Records sharing a tick
// are ordered by (at, seq) when their slot becomes current.
//
// Cancellation is O(1) and needs no hashing. Records live in a stable
// arena and are recycled LIFO through a free list; each carries its
// insertion sequence, and the handle Insert() returns encodes the
// record's arena index and the low 32 bits of that sequence. Cancel()
// marks the record dead only if it is still live and holds the same
// sequence, so a stale handle (the event already fired, or its record
// has since been reused by a newer event) or one never issued is a
// no-op. Dead records stay in the order until they reach the front,
// where they are released; size()/empty() count live records only. A
// stale handle could only alias a live record if the same record were
// reused exactly a multiple of 2^32 insertions later.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "common/types.h"

namespace mrp {

// T is the payload each record carries (a callback, usually); it must be
// default-constructible and movable. Insert() takes ownership; the
// payload of a cancelled record is destroyed at Cancel().
template <typename T>
class TimerWheel {
 public:
  using Handle = std::uint64_t;  // never 0

  static constexpr int kGranularityBits = 10;  // 1024 ns per tick
  static constexpr int kSlotBits = 6;          // 64 slots per level
  static constexpr int kLevels = 4;
  static constexpr std::size_t kSlots = 1u << kSlotBits;

  struct Record {
    TimePoint at{0};
    std::uint64_t seq = 0;  // insertion sequence, 1-based
    T value{};
    std::uint32_t index = 0;  // position in the arena
    enum class State : std::uint8_t { kFree, kLive, kDead } state =
        State::kFree;
  };

  static Handle HandleOf(const Record& r) {
    return (static_cast<Handle>(r.index) + 1) << 32 |
           static_cast<std::uint32_t>(r.seq);
  }

  Handle Insert(TimePoint at, T value) {
    Record* r = Acquire();
    r->at = at;
    r->seq = ++seq_;
    r->value = std::move(value);
    r->state = Record::State::kLive;
    ++live_;
    Link(r);
    return HandleOf(*r);
  }

  // Marks the handle's record dead; returns false (and does nothing) when
  // the handle is stale or was never issued.
  bool Cancel(Handle h) {
    const std::uint64_t index = (h >> 32) - 1;  // h < 2^32 wraps: no-op
    if (index >= records_.size()) return false;
    Record& r = records_[index];
    if (r.state != Record::State::kLive ||
        static_cast<std::uint32_t>(r.seq) != static_cast<std::uint32_t>(h)) {
      return false;
    }
    r.state = Record::State::kDead;
    r.value = T{};  // free captured state now
    --live_;
    return true;
  }

  // Live record with the smallest (at, seq), or nullptr when none is
  // pending; dead records reaching the front are released on the way.
  // The returned record stays stored; TakeMin() extracts it.
  Record* PeekMin() {
    while (Record* r = Front()) {
      if (r->state == Record::State::kLive) return r;
      Unlink(r);
      Free(r);
    }
    return nullptr;
  }

  // Removes the PeekMin() record from the order. It stays live (and its
  // handle valid) until Release() hands back its payload, or Relink()
  // puts it back in the order with its sequence unchanged.
  Record* TakeMin() {
    Record* r = PeekMin();
    if (r != nullptr) Unlink(r);
    return r;
  }

  void Relink(Record* r) { Link(r); }

  T Release(Record* r) {
    T value = std::move(r->value);
    --live_;
    Free(r);
    return value;
  }

  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  // Records ever inserted: the last sequence handed out.
  std::uint64_t inserted() const { return seq_; }

  // ---- Arena stats (exported by the perf/scale suites) ----
  std::size_t allocated() const { return records_.size(); }
  std::uint64_t reused() const { return reused_; }

 private:
  static bool Earlier(const Record* a, const Record* b) {
    if (a->at != b->at) return a->at < b->at;
    return a->seq < b->seq;
  }
  struct OverflowLater {
    bool operator()(const Record* a, const Record* b) const {
      return Earlier(b, a);
    }
  };

  Record* Acquire() {
    if (!free_.empty()) {
      Record* r = free_.back();
      free_.pop_back();
      ++reused_;
      return r;
    }
    Record& r = records_.emplace_back();
    r.index = static_cast<std::uint32_t>(records_.size() - 1);
    return &r;
  }

  void Free(Record* r) {
    r->state = Record::State::kFree;
    r->value = T{};
    free_.push_back(r);
  }

  void Link(Record* r) {
    // Ticks in the past are clamped into the current slot: ordering is
    // by exact (at, seq), so a late record still fires first within it.
    const std::uint64_t tick = std::max(TickOf(r->at), cur_tick_);
    // Overflow is gated on the top level's rotating window, not the raw
    // tick distance: a tick can be < cur + 2^(kLevels*kSlotBits) yet land
    // past the window, which would alias a wrapped slot and re-cascade
    // onto itself forever.
    constexpr int kTopShift = (kLevels - 1) * kSlotBits;
    if ((tick >> kTopShift) - (cur_tick_ >> kTopShift) >= kSlots) {
      overflow_.push(r);
      return;
    }
    const int level = LevelFor(tick);
    const std::size_t slot = SlotIndex(tick, level);
    auto& vec = slots_[static_cast<std::size_t>(level)][slot];
    if (level == 0 && tick == sorted_tick_ && !vec.empty()) {
      // The slot being drained is kept sorted past its cursor; keep the
      // invariant so a callback scheduling into its own tick fires in
      // (at, seq) order.
      vec.insert(std::upper_bound(vec.begin() +
                                      static_cast<std::ptrdiff_t>(cur_pos_),
                                  vec.end(), r, Earlier),
                 r);
    } else {
      vec.push_back(r);
    }
    occupied_[static_cast<std::size_t>(level)] |= 1ULL << slot;
  }

  // Record with the smallest (at, seq), dead or live, or nullptr when
  // the order is empty.
  Record* Front() {
    Record* w = WheelFront();
    Record* o = overflow_.empty() ? nullptr : overflow_.top();
    if (w == nullptr) return o;
    if (o == nullptr) return w;
    return Earlier(o, w) ? o : w;
  }

  // Removes `r`, which the last Front() returned, from the order.
  void Unlink(Record* r) {
    if (!overflow_.empty() && overflow_.top() == r) {
      // Advancing to the overflow record's tick is safe: every wheel
      // record orders after it, so their ticks are >= this one.
      cur_tick_ = std::max(cur_tick_, TickOf(r->at));
      overflow_.pop();
      return;
    }
    const std::size_t slot = SlotIndex(cur_tick_, 0);
    auto& vec = slots_[0][slot];
    assert(vec[cur_pos_] == r);
    ++cur_pos_;
    if (cur_pos_ == vec.size()) {
      vec.clear();
      cur_pos_ = 0;
      ClearBit(0, slot);
    }
  }

  static std::uint64_t TickOf(TimePoint at) {
    const auto ns = at.count() < 0 ? 0 : static_cast<std::uint64_t>(at.count());
    return ns >> kGranularityBits;
  }

  // Smallest level whose window [cur >> shift, (cur >> shift) + kSlots)
  // contains the tick. Link() clamps, so tick >= cur_tick_ here.
  int LevelFor(std::uint64_t tick) const {
    for (int k = 0; k < kLevels - 1; ++k) {
      const int shift = k * kSlotBits;
      if ((tick >> shift) - (cur_tick_ >> shift) < kSlots) return k;
    }
    return kLevels - 1;  // horizon already checked by Link
  }

  std::size_t SlotIndex(std::uint64_t tick, int level) const {
    return (tick >> (level * kSlotBits)) & (kSlots - 1);
  }

  void ClearBit(int level, std::size_t slot) {
    occupied_[static_cast<std::size_t>(level)] &= ~(1ULL << slot);
  }

  // First occupied slot of `level` at or after the level's current
  // position, searching the full wrapped window. Returns the slot's
  // absolute level-k tick, or ~0 when the level is empty.
  std::uint64_t NextOccupiedTick(int level) const {
    const std::uint64_t bits = occupied_[static_cast<std::size_t>(level)];
    if (bits == 0) return ~0ULL;
    const std::uint64_t cur_k = cur_tick_ >> (level * kSlotBits);
    const unsigned r = static_cast<unsigned>(cur_k & (kSlots - 1));
    const std::uint64_t rot =
        r == 0 ? bits : (bits >> r) | (bits << (kSlots - r));
    const unsigned dist =
        static_cast<unsigned>(__builtin_ctzll(rot));  // rot != 0
    return cur_k + dist;
  }

  // Positions the level-0 current slot on the earliest wheel record and
  // returns its front, or nullptr when all wheels are empty. Advances
  // cur_tick_ to that tick, never past any stored record's tick.
  //
  // The level-0 window slides tick by tick, so it can come to overlap a
  // higher-level slot that has not cascaded yet — and that slot may hide
  // records at or before the level-0 front (a nested callback inserting
  // near `now` lands in level 0 while an older same-tick record still
  // sits in level 1). So before trusting level 0, any occupied higher
  // slot whose span starts at or before the candidate tick is cascaded;
  // afterwards every remaining higher-level record is strictly later.
  Record* WheelFront() {
    while (true) {
      const std::uint64_t t0 = NextOccupiedTick(0);  // ~0 when level empty
      int best_k = 0;
      std::uint64_t best_start = ~0ULL;
      std::uint64_t best_sk = 0;
      for (int k = 1; k < kLevels; ++k) {
        const std::uint64_t sk = NextOccupiedTick(k);
        if (sk == ~0ULL) continue;
        const std::uint64_t start = sk << (k * kSlotBits);
        if (start <= best_start) {  // ties: prefer the higher level
          best_k = k;
          best_start = start;
          best_sk = sk;
        }
      }
      if (best_k != 0 && best_start <= t0) {
        // Enter the slot: redistribute its records into lower levels.
        // Their ticks are all >= max(cur, span start), so cur_tick_
        // never passes a stored record; each record moves strictly down
        // a level, so the loop terminates.
        cur_tick_ = std::max(cur_tick_, best_start);
        const std::size_t slot = best_sk & (kSlots - 1);
        auto& vec = slots_[static_cast<std::size_t>(best_k)][slot];
        cascade_.swap(vec);
        ClearBit(best_k, slot);
        for (Record* r : cascade_) Link(r);
        cascade_.clear();
        continue;
      }
      if (t0 == ~0ULL) return nullptr;  // wheels empty
      cur_tick_ = t0;
      auto& vec = slots_[0][SlotIndex(t0, 0)];
      if (sorted_tick_ != t0) {
        std::sort(vec.begin(), vec.end(), Earlier);
        sorted_tick_ = t0;
        cur_pos_ = 0;
      }
      return vec[cur_pos_];
    }
  }

  // Arena of every record ever allocated (a deque, so growth never moves
  // one), and the released ones, reused LIFO while still warm in cache.
  std::deque<Record> records_;
  std::vector<Record*> free_;
  std::array<std::array<std::vector<Record*>, kSlots>, kLevels> slots_;
  std::array<std::uint64_t, kLevels> occupied_{};
  // Records at or beyond the wheel horizon, exact-ordered; consulted at
  // peek/pop time so far-future timers never perturb the firing order.
  std::priority_queue<Record*, std::vector<Record*>, OverflowLater> overflow_;
  std::uint64_t cur_tick_ = 0;
  // Tick whose level-0 slot is known sorted (slots are sorted lazily
  // when they become current; inserts into the current tick keep order)
  // and the drain cursor into that slot — entries before cur_pos_ have
  // already been removed.
  std::uint64_t sorted_tick_ = ~0ULL;
  std::size_t cur_pos_ = 0;
  std::vector<Record*> cascade_;
  std::uint64_t seq_ = 0;
  std::size_t live_ = 0;
  std::uint64_t reused_ = 0;
};

}  // namespace mrp
