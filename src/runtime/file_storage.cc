#include "runtime/file_storage.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/wire.h"

namespace mrp::runtime {
namespace {

// Log record framing: [u32 size][payload]; payload encodes one
// (instance, AcceptorRecord) pair.
Bytes EncodeRecord(InstanceId instance, const paxos::AcceptorRecord& rec) {
  using Ref = std::pair<InstanceId, const paxos::AcceptorRecord&>;
  return wire::Encode(Ref(instance, rec));
}

}  // namespace

FileStorage::FileStorage(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "ab+");
  if (file_ == nullptr) {
    MRP_ERROR << "FileStorage: cannot open " << path_;
  }
}

FileStorage::~FileStorage() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

std::size_t FileStorage::Load() {
  if (file_ == nullptr) return 0;
  std::fflush(file_);
  std::FILE* in = std::fopen(path_.c_str(), "rb");
  if (in == nullptr) return 0;
  std::size_t loaded = 0;
  std::vector<std::uint8_t> buf;
  for (;;) {
    std::uint32_t size = 0;
    if (std::fread(&size, sizeof size, 1, in) != 1) break;
    buf.resize(size);
    if (size > 0 && std::fread(buf.data(), 1, size, in) != size) break;
    auto rec = wire::Decode<std::pair<InstanceId, paxos::AcceptorRecord>>(buf);
    if (!rec) break;  // truncated tail
    records_[rec->first] = std::move(rec->second);
    ++loaded;
    ++appends_in_log_;
    bytes_in_log_ += sizeof size + size;
  }
  std::fclose(in);
  return loaded;
}

void FileStorage::Persist(InstanceId instance, const paxos::AcceptorRecord& rec,
                          std::size_t /*wire_bytes*/, std::function<void()> done) {
  if (file_ != nullptr) {
    const Bytes payload = EncodeRecord(instance, rec);
    const auto size = static_cast<std::uint32_t>(payload.size());
    std::fwrite(&size, sizeof size, 1, file_);
    std::fwrite(payload.data(), 1, payload.size(), file_);
    bytes_written_ += sizeof size + payload.size();
    bytes_in_log_ += sizeof size + payload.size();
    ++appends_in_log_;
  }
  // Buffered mode: the write is "stable" once handed to the OS buffer.
  if (done) done();
}

void FileStorage::Trim(InstanceId below) {
  // Safety-tied trimming: never discard records a recovering learner
  // can still need — everything at or above the stable checkpoint
  // frontier stays, whatever the caller's trim policy computed
  // (docs/RECOVERY.md). Compact() rewrites from records_, so the
  // retained entries also survive every future compaction.
  if (frontier_set_ && below > checkpoint_frontier_) {
    below = checkpoint_frontier_;
    ++trims_clamped_;
  }
  // In-memory trim; the on-disk log keeps superseded records until
  // Compact() rewrites it with only the retained state.
  paxos::Storage::Trim(below);
}

void FileStorage::Flush() {
  if (file_ != nullptr) std::fflush(file_);
}

bool FileStorage::Compact() {
  const std::string tmp = path_ + ".compact";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) return false;
  std::uint64_t new_bytes = 0;
  for (const auto& [instance, rec] : records_) {
    const Bytes payload = EncodeRecord(instance, rec);
    const auto size = static_cast<std::uint32_t>(payload.size());
    if (std::fwrite(&size, sizeof size, 1, out) != 1 ||
        std::fwrite(payload.data(), 1, payload.size(), out) != payload.size()) {
      std::fclose(out);
      std::remove(tmp.c_str());
      return false;
    }
    new_bytes += sizeof size + payload.size();
  }
  if (std::fflush(out) != 0) {
    std::fclose(out);
    std::remove(tmp.c_str());
    return false;
  }
  std::fclose(out);
  if (file_ != nullptr) std::fclose(file_);
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    // Reopen the old log; the compacted copy is discarded.
    std::remove(tmp.c_str());
    file_ = std::fopen(path_.c_str(), "ab+");
    return false;
  }
  file_ = std::fopen(path_.c_str(), "ab+");
  ++compactions_;
  // The rewritten log holds exactly the live records, zero garbage.
  appends_in_log_ = size();
  bytes_in_log_ = new_bytes;
  return file_ != nullptr;
}

bool FileStorage::MaybeCompact(std::uint64_t min_bytes) {
  if (bytes_in_log_ < min_bytes) return false;
  if (appends_in_log_ <= 2 * size()) return false;
  return Compact();
}

}  // namespace mrp::runtime
