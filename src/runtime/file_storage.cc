#include "runtime/file_storage.h"

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"

namespace mrp::runtime {
namespace {

// Log record framing: [u32 size][payload]; payload encodes one
// (instance, AcceptorRecord).
Bytes EncodeRecord(InstanceId instance, const paxos::AcceptorRecord& rec) {
  ByteWriter w;
  w.u64(instance);
  w.u32(rec.promised);
  w.u32(rec.accepted_round);
  w.u8(rec.accepted.has_value() ? 1 : 0);
  if (rec.accepted) {
    const auto& v = *rec.accepted;
    w.u8(static_cast<std::uint8_t>(v.kind));
    w.u64(v.skip_count);
    w.varint(v.msgs.size());
    for (const auto& m : v.msgs) {
      w.u32(m.group);
      w.u32(m.proposer);
      w.u64(m.seq);
      w.i64(m.sent_at.count());
      w.u32(m.payload_size);
      w.bytes(m.payload);
    }
  }
  return w.take();
}

bool DecodeRecord(ByteReader& r, InstanceId& instance, paxos::AcceptorRecord& rec) {
  auto inst = r.u64();
  auto promised = r.u32();
  auto vrnd = r.u32();
  auto has = r.u8();
  if (!inst || !promised || !vrnd || !has) return false;
  instance = *inst;
  rec.promised = *promised;
  rec.accepted_round = *vrnd;
  rec.accepted.reset();
  if (*has) {
    paxos::Value v;
    auto kind = r.u8();
    auto skip = r.u64();
    auto count = r.varint();
    if (!kind || !skip || !count) return false;
    v.kind = static_cast<paxos::Value::Kind>(*kind);
    v.skip_count = *skip;
    for (std::uint64_t i = 0; i < *count; ++i) {
      paxos::ClientMsg m;
      auto group = r.u32();
      auto proposer = r.u32();
      auto seq = r.u64();
      auto sent = r.i64();
      auto psize = r.u32();
      auto payload = r.bytes();
      if (!group || !proposer || !seq || !sent || !psize || !payload) return false;
      m.group = *group;
      m.proposer = *proposer;
      m.seq = *seq;
      m.sent_at = Duration(*sent);
      m.payload_size = *psize;
      m.payload = std::move(*payload);
      v.msgs.push_back(std::move(m));
    }
    rec.accepted = std::move(v);
  }
  return true;
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
    ByteReader r(buf);
    InstanceId instance;
    paxos::AcceptorRecord rec;
    if (!DecodeRecord(r, instance, rec)) break;  // truncated tail
    records_[instance] = std::move(rec);
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
