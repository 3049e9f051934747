// SessionTable: the replicated, deterministic per-session dedup state
// that turns the at-least-once command stream into exactly-once applies
// (docs/SESSIONS.md). Every replica of a partition folds the same
// ordered stream of session opens/closes and session-stamped commands
// into this table, so all replicas agree on which (session_id, seqno)
// pairs have been applied and what the cached response was.
//
// Commands from one session may decide out of submission order (the
// client pipelines a window of them), so per session the table keeps a
// low watermark (all seqnos <= low applied) plus the sparse set of
// applied seqnos above it. Header-only: smr::Replica embeds a table
// without a link dependency on the session library.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/fingerprint.h"
#include "common/wire.h"

namespace mrp::session {

class SessionTable {
 public:
  enum class Admit {
    kApply,      // first time this seqno is seen: execute it
    kDuplicate,  // already applied: suppress, re-send the cached response
    kUnknown,    // session not open (never opened, or closed)
  };

  // Decode bound on every collection in a serialized table: sessions,
  // applied seqnos above a watermark, cached responses and their rows.
  static constexpr std::uint64_t kMaxCount = 10'000'000;

  struct Cached {
    bool ok = false;
    std::vector<std::pair<std::uint64_t, std::string>> rows;

    MRP_WIRE_FIELDS(ok, wire::Capped<kMaxCount>(rows))
  };

  // How many responses are cached per session; older ones are evicted
  // (a duplicate past the cache re-sends ok with no rows, which is
  // exact for writes and degraded-but-safe for evicted queries).
  explicit SessionTable(std::size_t response_cache = 64)
      : response_cache_(response_cache) {}

  // Idempotent: reopening a live session is a no-op.
  void Open(std::uint64_t sid) { entries_.try_emplace(sid); }
  void Close(std::uint64_t sid) { entries_.erase(sid); }
  bool IsOpen(std::uint64_t sid) const { return entries_.count(sid) != 0; }
  std::size_t size() const { return entries_.size(); }

  Admit Check(std::uint64_t sid, std::uint64_t seq) const {
    auto it = entries_.find(sid);
    if (it == entries_.end()) return Admit::kUnknown;
    if (seq == 0) return Admit::kApply;  // unstamped op within a session
    const Entry& e = it->second;
    if (seq <= e.low || e.above.count(seq) != 0) return Admit::kDuplicate;
    return Admit::kApply;
  }

  void Record(std::uint64_t sid, std::uint64_t seq, bool ok,
              std::vector<std::pair<std::uint64_t, std::string>> rows) {
    auto it = entries_.find(sid);
    if (it == entries_.end() || seq == 0) return;
    Entry& e = it->second;
    e.above.insert(seq);
    while (e.above.count(e.low + 1) != 0) {
      e.above.erase(e.low + 1);
      ++e.low;
    }
    e.responses[seq] = Cached{ok, std::move(rows)};
    while (e.responses.size() > response_cache_) {
      e.responses.erase(e.responses.begin());
    }
  }

  // Cached response of an applied seqno; nullptr once evicted.
  const Cached* Response(std::uint64_t sid, std::uint64_t seq) const {
    auto it = entries_.find(sid);
    if (it == entries_.end()) return nullptr;
    auto rit = it->second.responses.find(seq);
    return rit == it->second.responses.end() ? nullptr : &rit->second;
  }

  // ---- Checkpoint integration (Replica::SnapshotState, docs/RECOVERY.md) ----
  MRP_WIRE_FIELDS(wire::Capped<kMaxCount>(entries_))
  Bytes Serialize() const { return wire::Encode(*this); }

  // Replaces the table's sessions; false (table untouched) on malformed
  // input.
  bool Deserialize(const Bytes& bytes) {
    auto fresh = wire::Decode<SessionTable>(bytes);
    if (!fresh) return false;
    entries_ = std::move(fresh->entries_);
    return true;
  }

  // Order-sensitive digest over the full table (docs/MODEL_CHECKING.md).
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(entries_.size());
    for (const auto& [sid, e] : entries_) {
      f.U64(sid);
      f.U64(e.low);
      f.U64(e.above.size());
      for (std::uint64_t s : e.above) f.U64(s);
      f.U64(e.responses.size());
      for (const auto& [seq, c] : e.responses) {
        f.U64(seq);
        f.Bool(c.ok);
        f.U64(c.rows.size());
        for (const auto& [k, v] : c.rows) {
          f.U64(k);
          f.Str(v);
        }
      }
    }
    return f.digest();
  }

 private:
  struct Entry {
    std::uint64_t low = 0;           // every seqno <= low is applied
    std::set<std::uint64_t> above;   // applied seqnos > low (out-of-order)
    std::map<std::uint64_t, Cached> responses;  // newest applied seqnos

    MRP_WIRE_FIELDS(low, wire::Capped<kMaxCount>(above),
                    wire::Capped<kMaxCount>(responses))
  };

  std::size_t response_cache_;
  std::map<std::uint64_t, Entry> entries_;
};

}  // namespace mrp::session
