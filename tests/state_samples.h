// One populated sample of every state format that recovery,
// reconfiguration and the acceptor log move between nodes or onto disk:
// checkpoints, replica snapshots (with the KV store and session table
// inside), routing views, reconfig plans, HashApp state, FileStorage
// records and SMR commands. Each sample is encoded through the format's
// public API and paired with a predicate that runs the format's decoder.
// Shared by the state-format pins (wire_format_test) and the hostile-
// input cases (codec_hardening_test).
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "paxos/storage.h"
#include "reconfig/plan.h"
#include "reconfig/ring_view.h"
#include "recovery/checkpoint.h"
#include "recovery/hash_app.h"
#include "runtime/file_storage.h"
#include "session/session_table.h"
#include "smr/command.h"
#include "smr/kvstore.h"
#include "smr/replica.h"

namespace mrp::state_samples {

inline recovery::Checkpoint SampleCheckpoint() {
  recovery::Checkpoint cp;
  cp.id = 9;
  cp.delivered_count = 1234;
  cp.cut = {{0, 100, 0}, {1, 250, 3}};
  cp.app_state = {1, 2, 3, 4};
  return cp;
}

inline reconfig::ReconfigPlan SampleSplit() {
  return reconfig::ReconfigPlan::Split(5, 0, 1, 500, 999, 2);
}

inline reconfig::ReconfigPlan SampleSwap() {
  return reconfig::ReconfigPlan::Swap(6, 1, 4, 9);
}

// Three groups; routes and ranges are listed out of order on purpose
// (the configuration keeps them sorted by group and by range start).
inline reconfig::RingConfiguration SampleRingConfiguration() {
  return reconfig::RingConfiguration(
      3,
      {{2, 2, 8, 20, 21, {8, 9, 10}},
       {0, 0, 0, 0, 1, {0, 1, 2}},
       {1, 1, 5, 10, 11, {5, 6}}},
      {{500, 999, 1}, {0, 499, 0}}, 2);
}

inline smr::KvStore SampleKvStore() {
  smr::KvStore kv;
  kv.Insert(333, std::string(130, 'x'));
  kv.Insert(1, "one");
  kv.Insert(22, "");
  return kv;
}

// Session 7 has applied seqnos 1 and 3 (2 is still missing, so 3 sits
// above the watermark) with cached responses; session 9 is open and
// idle.
inline session::SessionTable SampleSessionTable() {
  session::SessionTable t;
  t.Open(7);
  t.Open(9);
  t.Record(7, 1, true, {});
  t.Record(7, 3, false, {{5, "five"}, {6, ""}});
  return t;
}

inline constexpr std::uint64_t kSealedPlan = 21;

// Replica snapshot layout: applied counter, store blob, session-table
// blob, then the sealed ranges (plan id, lo, hi, target, handoff).
inline Bytes SampleReplicaState() {
  ByteWriter w;
  w.u64(7);
  w.bytes(SampleKvStore().Serialize());
  w.bytes(SampleSessionTable().Serialize());
  w.varint(1);
  w.u64(kSealedPlan);
  w.u64(500);
  w.u64(999);
  w.u32(1);
  w.bytes(SampleCheckpoint().Encode());
  return w.take();
}

inline recovery::HashApp SampleHashApp() {
  recovery::HashApp app;
  paxos::ClientMsg m;
  m.group = 1;
  m.proposer = 2;
  m.seq = 3;
  m.payload = Bytes{7, 8, 9};
  m.payload_size = 3;
  app.Apply(1, m);
  m.seq = 4;
  app.Apply(0, m);
  return app;
}

inline paxos::AcceptorRecord EmptyRecord() {
  paxos::AcceptorRecord rec;
  rec.promised = 3;
  return rec;
}

inline paxos::AcceptorRecord BatchRecord() {
  paxos::ClientMsg a;
  a.group = 1;
  a.proposer = 2;
  a.seq = 3;
  a.sent_at = Micros(40);
  a.payload = Bytes{0xAA, 0xBB, 0xCC};
  a.payload_size = 3;
  paxos::ClientMsg b = a;
  b.seq = 4;
  b.payload.clear();  // elided payload, size kept
  b.payload_size = 512;
  paxos::AcceptorRecord rec;
  rec.promised = 5;
  rec.accepted_round = 5;
  rec.accepted = paxos::Value::Batch({a, b});
  return rec;
}

inline paxos::AcceptorRecord SkipRecord() {
  paxos::AcceptorRecord rec;
  rec.promised = 6;
  rec.accepted_round = 4;
  rec.accepted = paxos::Value::Skip(17);
  return rec;
}

inline std::string TempLogPath() {
  return "/tmp/mrp_state_samples_" + std::to_string(::getpid()) + ".log";
}

inline Bytes ReadFile(const std::string& path) {
  Bytes out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

// The file FileStorage writes for one Put of `rec` at `instance`.
inline Bytes FileStorageLog(InstanceId instance, const paxos::AcceptorRecord& rec) {
  const std::string path = TempLogPath();
  std::remove(path.c_str());
  {
    runtime::FileStorage st(path);
    st.Put(instance, rec, 0, nullptr);
    st.Flush();
  }
  Bytes log = ReadFile(path);
  std::remove(path.c_str());
  return log;
}

// One log record's payload: the log minus its u32 size header.
inline Bytes FileStorageRecord(InstanceId instance, const paxos::AcceptorRecord& rec) {
  const Bytes log = FileStorageLog(instance, rec);
  return log.size() < 4 ? Bytes{} : Bytes(log.begin() + 4, log.end());
}

// Frames `payload` as one log record and replays it: true when
// FileStorage::Load accepts the record.
inline bool FileStorageLoads(const Bytes& payload) {
  const std::string path = TempLogPath();
  std::remove(path.c_str());
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  Bytes log = w.take();
  log.insert(log.end(), payload.begin(), payload.end());
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(log.data(), 1, log.size(), f);
    std::fclose(f);
  }
  runtime::FileStorage st(path);
  const bool ok = st.Load() == 1;
  std::remove(path.c_str());
  return ok;
}

inline std::vector<std::pair<std::string, smr::Command>> SampleCommands() {
  smr::Command insert = smr::Command::Insert(42, "value");
  insert.req_id = 11;
  insert.client = 3;
  insert.session_id = 5;
  insert.session_seq = 6;
  smr::Command query = smr::Command::Query(10, 20);
  query.req_id = 12;
  query.client = 3;
  return {{"Command.insert", insert},
          {"Command.delete", smr::Command::Delete(43)},
          {"Command.query", query},
          {"Command.session_open", smr::Command::SessionOpen(5)},
          {"Command.session_close", smr::Command::SessionClose(5)},
          {"Command.seal", smr::Command::Seal(21, 500, 999, 1)}};
}

// A format's sample encoding and its decoder as a predicate: true when
// the decoder accepts the bytes.
struct Format {
  std::string name;
  Bytes bytes;
  std::function<bool(const Bytes&)> decodes;
};

inline std::vector<Format> Formats() {
  std::vector<Format> out;
  out.push_back({"Checkpoint", SampleCheckpoint().Encode(), [](const Bytes& b) {
                   return recovery::Checkpoint::Decode(b).has_value();
                 }});
  const auto plan_decodes = [](const Bytes& b) {
    return reconfig::ReconfigPlan::Decode(b).has_value();
  };
  out.push_back({"ReconfigPlan.split", SampleSplit().Encode(), plan_decodes});
  out.push_back({"ReconfigPlan.swap", SampleSwap().Encode(), plan_decodes});
  out.push_back({"RingConfiguration", SampleRingConfiguration().Encode(),
                 [](const Bytes& b) {
                   return reconfig::RingConfiguration::Decode(b).has_value();
                 }});
  out.push_back({"KvStore", SampleKvStore().Serialize(), [](const Bytes& b) {
                   return smr::KvStore().Deserialize(b);
                 }});
  out.push_back({"SessionTable", SampleSessionTable().Serialize(),
                 [](const Bytes& b) { return session::SessionTable().Deserialize(b); }});
  out.push_back({"ReplicaState", SampleReplicaState(), [](const Bytes& b) {
                   return smr::Replica(smr::ReplicaConfig{}).RestoreState(b);
                 }});
  out.push_back({"HashApp", SampleHashApp().SnapshotState(), [](const Bytes& b) {
                   return recovery::HashApp().RestoreState(b);
                 }});
  out.push_back({"FileStorage.empty", FileStorageRecord(4, EmptyRecord()),
                 FileStorageLoads});
  out.push_back({"FileStorage.batch", FileStorageRecord(5, BatchRecord()),
                 FileStorageLoads});
  out.push_back({"FileStorage.skip", FileStorageRecord(6, SkipRecord()),
                 FileStorageLoads});
  for (const auto& [name, cmd] : SampleCommands()) {
    out.push_back({name, cmd.Encode(), [](const Bytes& b) {
                     return smr::Command::Decode(b).has_value();
                   }});
  }
  return out;
}

}  // namespace mrp::state_samples
