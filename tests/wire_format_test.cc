// Pins the wire format: one populated instance of every wire message
// (tests/wire_samples.h), with real and with elided ClientMsg payloads,
// must encode to exactly these bytes. The sizes and FNV-1a digests were
// captured from the hand-written codec this registry replaced; a change
// here is a wire-format change and breaks interoperation with older
// nodes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/codec.h"
#include "state_samples.h"
#include "wire_samples.h"

namespace mrp {
namespace {

std::uint64_t Fnv1a(const Bytes& b) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t c : b) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Pinned {
  const char* name;
  std::size_t size;          // real payloads
  std::uint64_t digest;
  std::size_t elided_size;   // elided payloads
  std::uint64_t elided_digest;
};

// clang-format off
const Pinned kPinned[] = {
    {"ring.Submit", 43, 0x58e1e2d66b437d30ull, 34, 0x3b2ae570ee8b30b0ull},
    {"ring.SubmitAck", 17, 0xcc1f438d2b7350d2ull, 17, 0xcc1f438d2b7350d2ull},
    {"ring.P2A", 374, 0x370e2417eac8fe7full, 168, 0x20ce6e3570a7348eull},
    {"ring.P2B", 29, 0x11647ee5a450fcc9ull, 29, 0x11647ee5a450fcc9ull},
    {"ring.Decision", 54, 0x5a442eb37a770b74ull, 54, 0x5a442eb37a770b74ull},
    {"ring.P1A", 30, 0x8db393b94a99d5a1ull, 30, 0x8db393b94a99d5a1ull},
    {"ring.P1B", 347, 0x9947ddd13b3704f7ull, 141, 0x76d91032b175ee46ull},
    {"ring.Heartbeat", 13, 0xaa7ffd5fb0b0abaaull, 13, 0xaa7ffd5fb0b0abaaull},
    {"ring.HeartbeatAck", 9, 0xcbb27226528f199full, 9, 0xcbb27226528f199full},
    {"ring.LearnReq", 17, 0x3c6586f35b1db722ull, 17, 0x3c6586f35b1db722ull},
    {"ring.LearnRep", 351, 0x1a18a72093b9887eull, 145, 0x55e1405766c5901full},
    {"ring.DeliveryAck", 17, 0x3a6a49d5f7bafe42ull, 17, 0x3a6a49d5f7bafe42ull},
    {"smr.Response", 180, 0xa46e4e6e906174a9ull, 180, 0xa46e4e6e906174a9ull},
    {"ring.TrimNotice", 21, 0xbe2e0fc27ca04c3eull, 21, 0xbe2e0fc27ca04c3eull},
    {"recovery.SnapshotRequest", 17, 0x89d42fa478970c47ull, 17, 0x89d42fa478970c47ull},
    {"recovery.SnapshotChunk", 23, 0x02aad4e4a18060bdull, 23, 0x02aad4e4a18060bdull},
    {"recovery.SnapshotDone", 29, 0x8de311ecac230e19ull, 29, 0x8de311ecac230e19ull},
    {"paxos.Submit", 33, 0xbe2d8d96096ef343ull, 30, 0xb8ea2e55123b7d87ull},
    {"paxos.P1A", 13, 0x4b2f224bea760029ull, 13, 0x4b2f224bea760029ull},
    {"paxos.P1B", 321, 0xb98099948837217eull, 115, 0xc0ab8735c631663bull},
    {"paxos.P2A", 316, 0x8ac172ae575a644eull, 110, 0x1305c7d218de2dabull},
    {"paxos.P2B", 13, 0xb034a5b0faacf3eeull, 13, 0xb034a5b0faacf3eeull},
    {"paxos.Decision", 316, 0x9215e5a95c93eb92ull, 110, 0x06b779872ca31557ull},
    {"paxos.LearnReq", 9, 0x6b0fd94eb915ae21ull, 9, 0x6b0fd94eb915ae21ull},
    {"recovery.CheckpointRequest", 9, 0x895c666fbd90c5dcull, 9, 0x895c666fbd90c5dcull},
    {"recovery.CheckpointReport", 42, 0x9af8eef6ba53d305ull, 42, 0x9af8eef6ba53d305ull},
    {"recovery.FrontierAdvert", 34, 0x5caf5f9eddeb17abull, 34, 0x5caf5f9eddeb17abull},
    {"session.LeaseGrant", 33, 0xaf9e321ccb60385eull, 33, 0xaf9e321ccb60385eull},
    {"session.LeaseAck", 13, 0x94148e1962a438bfull, 13, 0x94148e1962a438bfull},
    {"session.LeaseRevoke", 13, 0xdc95cb86db043afeull, 13, 0xdc95cb86db043afeull},
    {"session.SessionRead", 33, 0x8fe9ad3550c75a36ull, 33, 0x8fe9ad3550c75a36ull},
    {"session.SessionReadRep", 176, 0xf48ba43ee8934c29ull, 176, 0xf48ba43ee8934c29ull},
    {"session.Rejected", 18, 0x798ea2b6432a377bull, 18, 0x798ea2b6432a377bull},
    {"reconfig.RoutingUpdate", 13, 0xcc4a4f565576b8b2ull, 13, 0xcc4a4f565576b8b2ull},
    {"reconfig.HandoffRequest", 13, 0x21eb9c4caa0a0d4dull, 13, 0x21eb9c4caa0a0d4dull},
    {"reconfig.PlanStatus", 10, 0x33005062a8d22025ull, 10, 0x33005062a8d22025ull},
};
// clang-format on

TEST(WireFormat, EveryMessageEncodesAsPinned) {
  const std::vector<MessagePtr> full = wire_samples::WireSamples(false);
  const std::vector<MessagePtr> elided = wire_samples::WireSamples(true);
  ASSERT_EQ(full.size(), elided.size());
  std::string actual;
  for (std::size_t i = 0; i < full.size(); ++i) {
    const Bytes a = net::EncodeMessage(*full[i]);
    const Bytes b = net::EncodeMessage(*elided[i]);
    ASSERT_FALSE(a.empty()) << full[i]->TypeName();
    ASSERT_FALSE(b.empty()) << elided[i]->TypeName();
    char row[160];
    std::snprintf(row, sizeof row, "    {\"%s\", %zu, 0x%016llxull, %zu, 0x%016llxull},\n",
                  full[i]->TypeName(), a.size(),
                  static_cast<unsigned long long>(Fnv1a(a)), b.size(),
                  static_cast<unsigned long long>(Fnv1a(b)));
    actual += row;
    if (i >= std::size(kPinned)) continue;
    const Pinned& p = kPinned[i];
    EXPECT_STREQ(full[i]->TypeName(), p.name);
    EXPECT_EQ(a.size(), p.size) << p.name;
    EXPECT_EQ(Fnv1a(a), p.digest) << p.name;
    EXPECT_EQ(b.size(), p.elided_size) << p.name;
    EXPECT_EQ(Fnv1a(b), p.elided_digest) << p.name;
  }
  EXPECT_EQ(full.size(), std::size(kPinned)) << "encodings:\n" << actual;
}

// ---- State formats (tests/state_samples.h) ----
// The exact bytes of every checkpoint, snapshot, routing-view, plan,
// log-record and command encoding, captured from the hand-written
// encoders these formats had before they moved onto the field walk.
// A change here breaks reading checkpoints and logs written earlier.

std::string Hex(const Bytes& b) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t c : b) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

Bytes Unhex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// clang-format off
const std::pair<const char*, const char*> kStatePins[] = {
    {"Checkpoint",
     "0900000000000000d20400000000000002000000006400000000000000000000000000000001000000fa0000000000000003000000000000000401020304"},
    {"ReconfigPlan.split",
     "fc0005000000000000000000000001000000f401000000000000e70300000000000002000000ffffffffffffffff"},
    {"ReconfigPlan.swap",
     "fc020600000000000000000000000000000000000000000000000000000000000000010000000400000009000000"},
    {"RingConfiguration",
     "030000000000000002000000030000000000000000000000000000000001000000030000000001000000020000000100000001000000050000000a0000000b00000002050000000600000002000000020000000800000014000000150000000308000000090000000a000000020000000000000000f30100000000000000000000f401000000000000e70300000000000001000000"},
    {"KvStore",
     "030100000000000000036f6e651600000000000000004d01000000000000820178787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878"},
    {"SessionTable",
     "020700000000000000010000000000000001030000000000000002010000000000000001000300000000000000000205000000000000000466697665060000000000000000090000000000000000000000000000000000"},
    {"ReplicaState",
     "0700000000000000a201030100000000000000036f6e651600000000000000004d0100000000000082017878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787878787857020700000000000000010000000000000001030000000000000002010000000000000001000300000000000000000205000000000000000466697665060000000000000000090000000000000000000000000000000000011500000000000000f401000000000000e703000000000000010000003e0900000000000000d20400000000000002000000006400000000000000000000000000000001000000fa0000000000000003000000000000000401020304"},
    {"HashApp",
     "02000000000000000bde9c21eb4e359f"},
    {"FileStorage.empty",
     "0400000000000000030000000000000000"},
    {"FileStorage.batch",
     "05000000000000000500000005000000010000000000000000000201000000020000000300000000000000409c0000000000000300000003aabbcc01000000020000000400000000000000409c0000000000000002000000"},
    {"FileStorage.skip",
     "060000000000000006000000040000000101110000000000000000"},
    {"Command.insert",
     "002a000000000000000576616c7565000000000000000000000000000000000b00000000000000030000000500000000000000060000000000000000000000"},
    {"Command.delete",
     "012b0000000000000000000000000000000000000000000000000000000000000000ffffffff0000000000000000000000000000000000000000"},
    {"Command.query",
     "020000000000000000000a0000000000000014000000000000000c00000000000000030000000000000000000000000000000000000000000000"},
    {"Command.session_open",
     "03000000000000000000000000000000000000000000000000000000000000000000ffffffff0500000000000000000000000000000000000000"},
    {"Command.session_close",
     "04000000000000000000000000000000000000000000000000000000000000000000ffffffff0500000000000000000000000000000000000000"},
    {"Command.seal",
     "05000000000000000000f401000000000000e7030000000000001500000000000000ffffffff0000000000000000000000000000000001000000"},
};
// clang-format on

Bytes Pin(const std::string& name) {
  for (const auto& [n, hex] : kStatePins) {
    if (name == n) return Unhex(hex);
  }
  ADD_FAILURE() << "no pin named " << name;
  return {};
}

TEST(WireFormat, StateFormatsEncodeAsPinned) {
  const auto formats = state_samples::Formats();
  std::string actual;
  for (const auto& f : formats) {
    actual += "    {\"" + f.name + "\",\n     \"" + Hex(f.bytes) + "\"},\n";
  }
  ASSERT_EQ(formats.size(), std::size(kStatePins)) << "encodings:\n" << actual;
  for (std::size_t i = 0; i < formats.size(); ++i) {
    EXPECT_EQ(formats[i].name, kStatePins[i].first);
    EXPECT_EQ(Hex(formats[i].bytes), kStatePins[i].second) << formats[i].name;
    EXPECT_TRUE(formats[i].decodes(Unhex(kStatePins[i].second))) << formats[i].name;
  }
}

TEST(WireFormat, StateFormatsDecodeFromPins) {
  namespace ss = state_samples;
  const Bytes cp_pin = Pin("Checkpoint");
  auto cp = recovery::Checkpoint::Decode(cp_pin);
  ASSERT_TRUE(cp.has_value());
  const recovery::Checkpoint want = ss::SampleCheckpoint();
  EXPECT_EQ(cp->id, want.id);
  EXPECT_EQ(cp->delivered_count, want.delivered_count);
  EXPECT_EQ(cp->cut, want.cut);
  EXPECT_EQ(cp->app_state, want.app_state);

  EXPECT_EQ(reconfig::ReconfigPlan::Decode(Pin("ReconfigPlan.split")), ss::SampleSplit());
  EXPECT_EQ(reconfig::ReconfigPlan::Decode(Pin("ReconfigPlan.swap")), ss::SampleSwap());

  const Bytes rc_pin = Pin("RingConfiguration");
  auto rc = reconfig::RingConfiguration::Decode(rc_pin);
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->Fingerprint(), ss::SampleRingConfiguration().Fingerprint());
  EXPECT_EQ(rc->Encode(), rc_pin);

  smr::KvStore kv;
  ASSERT_TRUE(kv.Deserialize(Pin("KvStore")));
  EXPECT_EQ(kv.Fingerprint(), ss::SampleKvStore().Fingerprint());

  session::SessionTable table;
  ASSERT_TRUE(table.Deserialize(Pin("SessionTable")));
  EXPECT_EQ(table.Fingerprint(), ss::SampleSessionTable().Fingerprint());

  const Bytes state_pin = Pin("ReplicaState");
  smr::Replica replica{smr::ReplicaConfig{}};
  ASSERT_TRUE(replica.RestoreState(state_pin));
  EXPECT_EQ(replica.applied(), 7u);
  EXPECT_EQ(replica.store().Fingerprint(), ss::SampleKvStore().Fingerprint());
  EXPECT_EQ(replica.sessions().Fingerprint(), ss::SampleSessionTable().Fingerprint());
  EXPECT_EQ(replica.seals(), 1u);
  ASSERT_NE(replica.Handoff(ss::kSealedPlan), nullptr);
  EXPECT_EQ(*replica.Handoff(ss::kSealedPlan), ss::SampleCheckpoint().Encode());
  EXPECT_EQ(replica.SnapshotState(), state_pin);

  recovery::HashApp app;
  ASSERT_TRUE(app.RestoreState(Pin("HashApp")));
  EXPECT_EQ(app.count(), ss::SampleHashApp().count());
  EXPECT_EQ(app.digest(), ss::SampleHashApp().digest());

  // A FileStorage log is [u32 size][record] per Put, and replays into
  // the record that was put.
  const std::pair<const char*, paxos::AcceptorRecord> records[] = {
      {"FileStorage.empty", ss::EmptyRecord()},
      {"FileStorage.batch", ss::BatchRecord()},
      {"FileStorage.skip", ss::SkipRecord()}};
  InstanceId instance = 4;
  for (const auto& [name, rec] : records) {
    const Bytes payload = Pin(name);
    ByteWriter framed;
    framed.u32(static_cast<std::uint32_t>(payload.size()));
    Bytes log = framed.take();
    log.insert(log.end(), payload.begin(), payload.end());
    EXPECT_EQ(ss::FileStorageLog(instance, rec), log) << name;
    const std::string path = ss::TempLogPath();
    std::remove(path.c_str());
    if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
      std::fwrite(log.data(), 1, log.size(), f);
      std::fclose(f);
    }
    runtime::FileStorage st(path);
    EXPECT_EQ(st.Load(), 1u) << name;
    const paxos::AcceptorRecord* got = st.Get(instance);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->promised, rec.promised) << name;
    EXPECT_EQ(got->accepted_round, rec.accepted_round) << name;
    EXPECT_EQ(got->accepted, rec.accepted) << name;
    std::remove(path.c_str());
    ++instance;
  }

  for (const auto& [name, want_cmd] : ss::SampleCommands()) {
    const Bytes pin = Pin(name);
    auto cmd = smr::Command::Decode(pin);
    ASSERT_TRUE(cmd.has_value()) << name;
    EXPECT_EQ(cmd->op, want_cmd.op) << name;
    EXPECT_EQ(cmd->Encode(), pin) << name;
  }
}

}  // namespace
}  // namespace mrp
