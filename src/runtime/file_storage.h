// FileStorage: recoverable acceptor storage for the real runtime —
// append-only log with buffered writes (the paper's Recoverable Ring
// Paxos uses buffered disk writes and assumes a majority of acceptors
// stays up, Section VI-A). Records are length-prefixed and replayable:
// Load() rebuilds the in-memory record table (owned by paxos::Storage)
// from the log after a restart.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "paxos/storage.h"

namespace mrp::runtime {

class FileStorage final : public paxos::Storage {
 public:
  // Opens (appending) or creates the log at `path`.
  explicit FileStorage(std::string path);
  ~FileStorage() override;

  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  // Replays an existing log into memory; returns the number of records
  // recovered. Call before serving.
  std::size_t Load();

  // Drops records below `below`, clamped to the checkpoint frontier.
  void Trim(InstanceId below) override;

  // Flushes buffered writes to the OS (no fsync: buffered mode).
  void Flush();

  // Rewrites the log with only the retained records (call after Trim
  // when the file outgrew the live state; atomic via rename).
  bool Compact();

  // Compaction policy: rewrite once at least `min_bytes` were appended
  // since the last compaction AND more than half of the appended records
  // are garbage (superseded by re-Puts or erased by Trim). Returns true
  // if a compaction ran. NodeRuntime::EnableLogCompaction calls this on
  // a timer; tests and tools may call it directly. Records at or above
  // the stable checkpoint frontier are never dropped: Trim() clamps to
  // it, so the rewrite retains everything a recovering learner can
  // still ask for (docs/RECOVERY.md).
  bool MaybeCompact(std::uint64_t min_bytes = 1 << 20);

  // Safety-tied trimming (docs/RECOVERY.md): once set, Trim() refuses
  // to discard records at or above `frontier` — the cluster-wide stable
  // checkpoint frontier advertised by the CheckpointCoordinator —
  // regardless of what the caller asks for, and MaybeCompact therefore
  // cannot persist their removal either. Monotone: a lower frontier
  // than the current one is ignored. Unset (the default) keeps the
  // caller-driven policy for deployments without the recovery
  // subsystem.
  void SetCheckpointFrontier(InstanceId frontier) {
    if (!frontier_set_ || frontier > checkpoint_frontier_) {
      checkpoint_frontier_ = frontier;
    }
    frontier_set_ = true;
  }
  bool has_checkpoint_frontier() const { return frontier_set_; }
  InstanceId checkpoint_frontier() const { return checkpoint_frontier_; }

  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t trims_clamped() const { return trims_clamped_; }

 protected:
  // Appends the record to the log; buffered mode counts it stable once
  // handed to the OS buffer.
  void Persist(InstanceId instance, const paxos::AcceptorRecord& record,
               std::size_t wire_bytes, std::function<void()> done) override;

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t compactions_ = 0;
  // Appends landed in the current log file (resets on Compact): the
  // garbage fraction is appends_in_log_ vs live size().
  std::uint64_t appends_in_log_ = 0;
  std::uint64_t bytes_in_log_ = 0;
  // Stable checkpoint frontier guard (docs/RECOVERY.md).
  bool frontier_set_ = false;
  InstanceId checkpoint_frontier_ = 0;
  std::uint64_t trims_clamped_ = 0;
};

}  // namespace mrp::runtime
