// Allocation pool for hot paths: an arena-backed free-list object pool
// (the simulator's in-flight packet records, the workload driver's
// sessions). It recycles LIFO so the hottest object is the one still
// warm in cache. Event records live in common/timer_wheel.h's own arena,
// which must map a handle back to its record.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace mrp {

// Arena-backed free-list pool. Every object ever allocated is owned by
// the pool and destroyed with it, so objects still checked out when the
// pool dies (e.g. packets parked in a torn-down scheduler) are
// reclaimed without a separate release. Acquire() reuses released
// objects LIFO; callers must treat an acquired object as carrying
// arbitrary previous state and reset the fields they use.
template <typename T>
class ObjectPool {
 public:
  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  T* Acquire() {
    ++acquired_;
    if (!free_.empty()) {
      T* p = free_.back();
      free_.pop_back();
      ++reused_;
      return p;
    }
    slots_.push_back(std::make_unique<T>());
    return slots_.back().get();
  }

  void Release(T* p) { free_.push_back(p); }

  // ---- Stats (exported by owners into metrics/bench output) ----
  std::size_t allocated() const { return slots_.size(); }
  std::size_t free_count() const { return free_.size(); }
  std::uint64_t acquired() const { return acquired_; }
  std::uint64_t reused() const { return reused_; }

 private:
  std::vector<std::unique_ptr<T>> slots_;
  std::vector<T*> free_;
  std::uint64_t acquired_ = 0;
  std::uint64_t reused_ = 0;
};

}  // namespace mrp
