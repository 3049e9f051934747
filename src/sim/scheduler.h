// Deterministic discrete-event scheduler. Events fire in (time, insertion
// sequence) order, so identical seeds give bit-identical runs.
//
// A thin layer over the timer wheel (common/timer_wheel.h,
// docs/SIMULATOR.md): pooled event records, O(1) schedule and cancel,
// allocation-free in steady state. The handle At() returns is the
// wheel's, so cancelling an event that already fired (or a handle whose
// record now holds a newer event) is a no-op without any hashing.
//
// A pluggable Strategy (tools/mc, docs/MODEL_CHECKING.md) may override
// the tie-break among events that share the minimal timestamp: the
// strategy is shown every enabled event at that time and picks which one
// fires. With no strategy installed the behaviour is exactly the
// historical (time, insertion sequence) order, so every existing
// deployment and the determinism gates are unaffected.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/timer_wheel.h"
#include "common/types.h"

namespace mrp::sim {

// Metadata a controller needs to reason about an event without seeing its
// closure: what kind of event it is, which node it targets, and an
// opaque class discriminator (message codec tag, timer id, ...). Plain
// data so strategies can hash/compare it.
struct EventTag {
  enum class Kind : std::uint8_t {
    kGeneric = 0,   // untagged work (cost-model stages, test events)
    kDelivery = 1,  // message delivery to `node`
    kTimer = 2,     // timer callback on `node`
  };
  Kind kind = Kind::kGeneric;
  NodeId node = kNoNode;
  std::uint32_t klass = 0;
};

class Scheduler {
 public:
  // Cancellation handle returned by At()/After(); never 0.
  using EventId = std::uint64_t;

  // One enabled event as shown to a Strategy: its insertion sequence
  // (1-based, the order At() was called in), firing time and the tag it
  // was scheduled with.
  struct EventInfo {
    EventId id = 0;
    TimePoint at{0};
    EventTag tag;
  };

  // Controller hook: when >= 2 events are enabled at the minimal
  // timestamp, PickNext chooses which fires (index into `enabled`,
  // which is ordered by insertion sequence). The scheduler owns the
  // tie-break only; strategies must return a valid index.
  class Strategy {
   public:
    virtual ~Strategy() = default;
    virtual std::size_t PickNext(const std::vector<EventInfo>& enabled) = 0;
  };

  TimePoint now() const { return now_; }

  EventId At(TimePoint t, std::function<void()> fn) {
    return At(t, EventTag{}, std::move(fn));
  }

  EventId At(TimePoint t, EventTag tag, std::function<void()> fn) {
    return wheel_.Insert(t < now_ ? now_ : t, Event{tag, std::move(fn)});
  }

  EventId After(Duration d, std::function<void()> fn) {
    return At(now_ + d, std::move(fn));
  }

  EventId After(Duration d, EventTag tag, std::function<void()> fn) {
    return At(now_ + d, tag, std::move(fn));
  }

  // Cancels a scheduled-but-unfired event. Handles that already ran (or
  // were never issued) are ignored, so empty() stays truthful no matter
  // how late a caller cancels.
  void Cancel(EventId id) {
    if (wheel_.Cancel(id)) ++events_cancelled_;
  }

  bool empty() const { return wheel_.empty(); }

  // Installs (or clears, with nullptr) the same-time tie-break strategy.
  // The pointer is borrowed and must outlive the scheduler or be cleared.
  void SetStrategy(Strategy* strategy) { strategy_ = strategy; }

  // Earliest live (non-cancelled) event time, or `fallback` when no live
  // event remains.
  TimePoint NextEventTime(TimePoint fallback) {
    const Record* r = wheel_.PeekMin();
    return r == nullptr ? fallback : r->at;
  }

  // Runs the next event; returns false if none remain.
  bool RunOne() {
    if (strategy_ != nullptr) return RunOneWithStrategy();
    Record* r = wheel_.TakeMin();
    if (r == nullptr) return false;
    Fire(r);
    return true;
  }

  // Runs all events with time <= t, then advances the clock to t.
  void RunUntil(TimePoint t) {
    while (true) {
      const Record* r = wheel_.PeekMin();
      if (r == nullptr || r->at > t) break;
      if (!RunOne()) break;
    }
    if (now_ < t) now_ = t;
  }

  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Drains every pending event (tests only; unbounded if events respawn).
  void RunAll() {
    while (RunOne()) {
    }
  }

  // Live (scheduled, unfired, uncancelled) events.
  std::size_t pending() const { return wheel_.size(); }

  // Handle of the event whose callback is running (or ran last).
  EventId current() const { return current_; }

  // ---- Dispatch counters (exported into the cluster metrics snapshot) ----
  std::uint64_t events_run() const { return events_run_; }
  std::uint64_t events_scheduled() const { return wheel_.inserted(); }
  std::uint64_t events_cancelled() const { return events_cancelled_; }

  // ---- Event-record pool stats ----
  std::size_t pool_allocated() const { return wheel_.allocated(); }
  std::uint64_t pool_reused() const { return wheel_.reused(); }

 private:
  struct Event {
    EventTag tag;
    std::function<void()> fn;
  };
  using Wheel = TimerWheel<Event>;
  using Record = Wheel::Record;

  // The record returns to the pool before the callback runs, so work
  // the callback schedules reuses it.
  void Fire(Record* r) {
    now_ = r->at;
    current_ = Wheel::HandleOf(*r);
    std::function<void()> fn = wheel_.Release(r).fn;
    fn();
    ++events_run_;
  }

  bool RunOneWithStrategy() {
    Record* first = wheel_.TakeMin();
    if (first == nullptr) return false;
    // Take every live event enabled at the minimal time; the wheel
    // yields them in insertion order.
    std::vector<Record*> enabled{first};
    for (const Record* r = wheel_.PeekMin(); r != nullptr && r->at == first->at;
         r = wheel_.PeekMin()) {
      enabled.push_back(wheel_.TakeMin());
    }
    std::size_t pick = 0;
    if (enabled.size() > 1) {
      std::vector<EventInfo> infos;
      infos.reserve(enabled.size());
      for (const Record* r : enabled) {
        infos.push_back({r->seq, r->at, r->value.tag});
      }
      pick = strategy_->PickNext(infos);
      if (pick >= enabled.size()) pick = 0;
    }
    // Relink the rest; their sequences are unchanged, so the sorted
    // current slot restores their relative order and the default
    // tie-break.
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      if (i != pick) wheel_.Relink(enabled[i]);
    }
    Fire(enabled[pick]);
    return true;
  }

  TimePoint now_{0};
  Wheel wheel_;
  Strategy* strategy_ = nullptr;
  EventId current_ = 0;
  std::uint64_t events_run_ = 0;
  std::uint64_t events_cancelled_ = 0;
};

}  // namespace mrp::sim
