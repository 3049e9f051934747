// Per-instance tables keyed by consensus instance id.
//
// InstanceWindow: an ordered buffer of per-instance values with O(1)
// amortised insertion and contiguous pop from a moving base cursor, one
// slot per logical id. Learners use it to hold out-of-order consensus
// decisions until the deterministic merge is ready to consume them.
//
// InstanceLog: the retained acceptor-side table, one entry per physical
// instance (the id a value was proposed at; a skip spanning many logical
// ids is one entry). It is the only instance-keyed store on the acceptor
// path: paxos::Storage owns the AcceptorRecord table in it, and RingNode
// keeps its per-instance acceptor state (accept mark, pending Phase 2B,
// decided vid) in a second one.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "common/types.h"

namespace mrp {

template <typename T>
class InstanceWindow {
 public:
  // Next instance the consumer expects (the base of the window).
  InstanceId next() const { return base_; }

  // Number of buffered (present) entries, including non-contiguous ones.
  std::size_t buffered() const { return present_; }

  bool empty() const { return present_ == 0; }

  // Inserts the value for `id`. Returns false (and ignores the value) if
  // `id` was already consumed or already present — duplicate decisions
  // are harmless and expected under retransmission.
  bool Insert(InstanceId id, T value) {
    if (id < base_) return false;
    const std::size_t off = static_cast<std::size_t>(id - base_);
    if (off >= slots_.size()) slots_.resize(off + 1);
    if (slots_[off].has_value()) return false;
    slots_[off] = std::move(value);
    ++present_;
    return true;
  }

  bool Contains(InstanceId id) const {
    if (id < base_) return false;
    const std::size_t off = static_cast<std::size_t>(id - base_);
    return off < slots_.size() && slots_[off].has_value();
  }

  // Mutable access to a buffered value (nullptr if absent/consumed).
  T* Get(InstanceId id) {
    if (id < base_) return nullptr;
    const std::size_t off = static_cast<std::size_t>(id - base_);
    if (off >= slots_.size() || !slots_[off].has_value()) return nullptr;
    return &*slots_[off];
  }

  // Value at the base of the window, if present.
  const T* Peek() const {
    if (slots_.empty() || !slots_.front().has_value()) return nullptr;
    return &*slots_.front();
  }

  // Pops the value at the base; precondition: Peek() != nullptr.
  T Pop() {
    assert(!slots_.empty() && slots_.front().has_value());
    T out = std::move(*slots_.front());
    slots_.pop_front();
    ++base_;
    --present_;
    return out;
  }

  // Advances the base cursor past `count` instances without requiring
  // values (used when a skip range covers them). Buffered values inside
  // the skipped range are discarded and returned so the caller can
  // release any accounting tied to them.
  std::vector<T> Skip(InstanceId count) {
    std::vector<T> discarded;
    while (count > 0 && !slots_.empty()) {
      if (slots_.front().has_value()) {
        --present_;
        discarded.push_back(std::move(*slots_.front()));
      }
      slots_.pop_front();
      ++base_;
      --count;
    }
    base_ += count;
    return discarded;
  }

  // Visits every buffered (instance, value) pair in instance order.
  // Read-only; the model checker folds the pairs into state fingerprints
  // (docs/MODEL_CHECKING.md).
  template <typename F>
  void ForEachPresent(F&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].has_value()) fn(base_ + i, *slots_[i]);
    }
  }

  // Smallest instance >= next() that is missing (not buffered). Used to
  // drive recovery requests for gaps.
  InstanceId FirstGap() const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].has_value()) return base_ + i;
    }
    return base_ + slots_.size();
  }

 private:
  InstanceId base_ = 0;
  std::size_t present_ = 0;
  std::deque<std::optional<T>> slots_;
};

// Entries sorted by instance id in a deque: appends go to the back,
// lookups binary-search only the entries that can hold the id (few, as
// lookups land within the coordinator's window of the back), and Trim
// pops from the front, releasing storage block by block. An insert
// behind the back shifts only the entries after it; an insert below the
// front, which only stale retransmissions cause, works too. Pointers and
// references into the table are invalidated by any insert.
template <typename T>
class InstanceLog {
 public:
  struct Entry {
    InstanceId id;
    T value;
  };
  using iterator = typename std::deque<Entry>::iterator;
  using const_iterator = typename std::deque<Entry>::const_iterator;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  // First entry with id >= from.
  iterator LowerBound(InstanceId from) { return begin() + Rank(from); }
  const_iterator LowerBound(InstanceId from) const { return begin() + Rank(from); }

  T* Find(InstanceId id) { return const_cast<T*>(std::as_const(*this).Find(id)); }
  const T* Find(InstanceId id) const {
    auto it = LowerBound(id);
    return it != end() && it->id == id ? &it->value : nullptr;
  }

  // The entry for `id`, default-constructed and inserted in order if
  // absent (std::map::operator[] semantics).
  T& operator[](InstanceId id) {
    if (empty() || entries_.back().id < id) {
      entries_.push_back(Entry{id, T{}});
      return entries_.back().value;
    }
    auto it = LowerBound(id);
    if (it == end() || it->id != id) it = entries_.insert(it, Entry{id, T{}});
    return it->value;
  }

  // Drops every entry with id < below.
  void Trim(InstanceId below) {
    while (!empty() && entries_.front().id < below) entries_.pop_front();
  }

 private:
  // Number of entries with id < from. Ids are distinct and sorted, so at
  // most back - from + 1 entries have an id in [from, back]: the search
  // starts that far from the back, where lookups cluster.
  std::ptrdiff_t Rank(InstanceId from) const {
    const auto n = static_cast<std::ptrdiff_t>(size());
    if (n == 0 || entries_.back().id < from) return n;
    const InstanceId span = entries_.back().id - from;
    const auto lo = span < size() ? n - 1 - static_cast<std::ptrdiff_t>(span) : 0;
    const auto less = [](const Entry& e, InstanceId id) { return e.id < id; };
    return std::lower_bound(begin() + lo, end(), from, less) - begin();
  }

  std::deque<Entry> entries_;
};

}  // namespace mrp
