// Hostile-input regression fixtures for the wire codec. Each test pins
// one hardening property: a malformed frame must decode to nullptr (or
// to a valid message) without crashing, over-reading, or allocating
// proportionally to attacker-chosen length fields. The byte-level
// fixtures mirror the frames tools/fuzz/mrp_fuzz.cc --codec-fuzz
// mutates randomly, so a fix regressing here fails deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "net/codec.h"
#include "paxos/value.h"
#include "ringpaxos/messages.h"
#include "state_samples.h"
#include "wire_samples.h"

namespace mrp::net {
namespace {

using paxos::ClientMsg;
using paxos::Value;
using namespace ringpaxos;  // NOLINT

ClientMsg SampleMsg() {
  ClientMsg m;
  m.group = 1;
  m.proposer = 2;
  m.seq = 3;
  m.sent_at = Millis(4);
  m.payload = Bytes{0xAA, 0xBB, 0xCC, 0xDD};
  m.payload_size = 4;
  return m;
}

// Writes the fixed ClientMsg prefix (everything before the payload).
void PutMsgPrefix(ByteWriter& w, const ClientMsg& m) {
  w.u32(m.group);
  w.u32(m.proposer);
  w.u64(m.seq);
  w.i64(m.sent_at.count());
  w.u32(m.payload_size);
}

TEST(CodecHardening, EveryTruncationHandled) {
  Value v = Value::Batch({SampleMsg(), SampleMsg(), SampleMsg()});
  const Bytes frame = EncodeMessage(
      P2A{1, 7, 1234, 99, v, {{10, 11}, {12, 13}}, {0, 1, 2}});
  ASSERT_FALSE(frame.empty());
  // Every prefix must decode without crashing; re-encoding whatever
  // decodes must also not crash (the decoded object is well-formed).
  for (std::size_t len = 0; len < frame.size(); ++len) {
    MessagePtr m = DecodeMessage({frame.data(), len});
    if (m != nullptr) (void)EncodeMessage(*m);
  }
  // The full frame still round-trips.
  EXPECT_NE(DecodeMessage(frame), nullptr);
}

TEST(CodecHardening, HugeVarintPayloadLengthRejected) {
  // A Submit whose payload declares length 2^64-1 with no bytes behind
  // it. Before the subtraction-form bounds check in ByteReader::bytes(),
  // `pos_ + n` wrapped around and the read slipped past the frame.
  ByteWriter w;
  w.u8(1);  // Tag::kSubmit
  w.u32(5);
  PutMsgPrefix(w, SampleMsg());
  for (int i = 0; i < 9; ++i) w.u8(0xFF);  // varint: huge length...
  w.u8(0x01);                              // ...terminated, no payload
  EXPECT_EQ(DecodeMessage(w.data()), nullptr);
}

TEST(CodecHardening, ReserveBombBoundedByFrameSize) {
  // A tiny Decision frame declaring 2^56 decided entries. The decoder
  // must reject it without reserving memory for the claimed count — an
  // unclamped reserve() here aborts on allocation failure (the ctest
  // timeout and sanitizer builds both catch regressions).
  ByteWriter w;
  w.u8(5);  // Tag::kDecision
  w.u32(0);
  for (int i = 0; i < 8; ++i) w.u8(0xFF);
  w.u8(0x01);
  EXPECT_EQ(DecodeMessage(w.data()), nullptr);
}

TEST(CodecHardening, ValueBatchCountBombRejected) {
  // P2A carrying a Value that claims a million-message batch in a
  // near-empty frame: the >1e6 cap plus ClampReserve stop it.
  ByteWriter w;
  w.u8(3);  // Tag::kP2A
  w.u32(1);
  w.u32(2);
  w.u64(3);
  w.u64(4);
  w.u8(0);           // Value::Kind::kBatch
  w.u64(0);          // skip_count
  w.varint(1 << 20); // claimed batch size, zero bytes of messages
  EXPECT_EQ(DecodeMessage(w.data()), nullptr);
}

TEST(CodecHardening, InvalidValueKindRejected) {
  ByteWriter w;
  w.u8(3);  // Tag::kP2A
  w.u32(1);
  w.u32(2);
  w.u64(3);
  w.u64(4);
  w.u8(9);  // no such Value::Kind
  w.u64(0);
  w.varint(0);
  EXPECT_EQ(DecodeMessage(w.data()), nullptr);
}

TEST(CodecHardening, PayloadSizeFieldMismatchRejected) {
  // payload_size claims 9 bytes but 4 are attached: the accounting field
  // and the real payload must agree when a payload is present.
  ClientMsg lie = SampleMsg();
  lie.payload_size = 9;
  ByteWriter w;
  w.u8(1);  // Tag::kSubmit
  w.u32(5);
  PutMsgPrefix(w, lie);
  w.bytes(lie.payload);
  EXPECT_EQ(DecodeMessage(w.data()), nullptr);

  // An empty payload with a nonzero accounting size stays legal — the
  // simulator models payload bytes without materializing them.
  ClientMsg sized = SampleMsg();
  sized.payload.clear();
  sized.payload_size = 4096;
  const Bytes ok = EncodeMessage(Submit{5, sized});
  EXPECT_NE(DecodeMessage(ok), nullptr);
}

TEST(CodecHardening, UnknownTagRejected) {
  // 15, 16 and 39+ are unassigned (the rest of 1..38 are live: 17-19/
  // 27-29 belong to the recovery subsystem, 30-35 to the session control
  // plane, 36-38 to elastic reconfiguration); keep this list clear of
  // any live tag.
  for (std::uint8_t tag : {0, 15, 16, 39, 40, 77, 200, 255}) {
    ByteWriter w;
    w.u8(tag);
    w.u32(1);
    w.u64(2);
    EXPECT_EQ(DecodeMessage(w.data()), nullptr) << unsigned(tag);
  }
}

TEST(CodecHardening, TrailingByteRejected) {
  // A frame is exactly one message: a valid frame followed by one more
  // byte is malformed, whichever message it carries.
  for (const MessagePtr& m : wire_samples::WireSamples(false)) {
    Bytes frame = EncodeMessage(*m);
    ASSERT_NE(DecodeMessage(frame), nullptr) << m->TypeName();
    frame.push_back(0);
    EXPECT_EQ(DecodeMessage(frame), nullptr) << m->TypeName();
    EXPECT_EQ(DecodeMessage(std::make_shared<const Bytes>(frame)), nullptr)
        << m->TypeName();
  }
}

// ---- State formats (tests/state_samples.h) ----

TEST(CodecHardening, StateFormatTruncationsRejected) {
  for (const auto& f : state_samples::Formats()) {
    ASSERT_TRUE(f.decodes(f.bytes)) << f.name;
    for (std::size_t len = 0; len < f.bytes.size(); ++len) {
      const Bytes cut(f.bytes.begin(), f.bytes.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(f.decodes(cut)) << f.name << " cut at " << len;
    }
  }
}

TEST(CodecHardening, StateFormatTrailingByteRejected) {
  for (const auto& f : state_samples::Formats()) {
    Bytes longer = f.bytes;
    longer.push_back(0);
    EXPECT_FALSE(f.decodes(longer)) << f.name;
  }
}

// A checkpoint whose cut has `n` entries.
Bytes CheckpointWithCut(std::uint64_t n) {
  ByteWriter w;
  w.u64(1);  // id
  w.u64(2);  // delivered_count
  w.varint(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    w.u32(static_cast<std::uint32_t>(i));
    w.u64(10);
    w.u64(0);
  }
  w.bytes(Bytes{});  // app_state
  return w.take();
}

// A routing view with `routes` routes (the first with `members`
// members) and `ranges` ranges.
Bytes RoutingView(std::uint64_t routes, std::uint64_t members,
                  std::uint64_t ranges) {
  ByteWriter w;
  w.u64(1);  // version
  w.u32(0);  // all_group
  w.varint(routes);
  for (std::uint64_t r = 0; r < routes; ++r) {
    for (int field = 0; field < 5; ++field) w.u32(static_cast<std::uint32_t>(r));
    const std::uint64_t n = r == 0 ? members : 0;
    w.varint(n);
    for (std::uint64_t j = 0; j < n; ++j) w.u32(static_cast<std::uint32_t>(j));
  }
  w.varint(ranges);
  for (std::uint64_t i = 0; i < ranges; ++i) {
    w.u64(2 * i);
    w.u64(2 * i + 1);
    w.u32(0);
  }
  return w.take();
}

TEST(CodecHardening, StateFormatCountCapsEnforced) {
  using recovery::Checkpoint;
  using reconfig::RingConfiguration;
  // Checkpoint cut: at most 100,000 entries.
  EXPECT_TRUE(Checkpoint::Decode(CheckpointWithCut(100'000)).has_value());
  EXPECT_FALSE(Checkpoint::Decode(CheckpointWithCut(100'001)).has_value());
  // Routing view: 100,000 routes, 10,000 members per route, 100,000
  // ranges.
  EXPECT_TRUE(RingConfiguration::Decode(RoutingView(100'000, 0, 0)).has_value());
  EXPECT_FALSE(RingConfiguration::Decode(RoutingView(100'001, 0, 0)).has_value());
  EXPECT_TRUE(RingConfiguration::Decode(RoutingView(1, 10'000, 0)).has_value());
  EXPECT_FALSE(RingConfiguration::Decode(RoutingView(1, 10'001, 0)).has_value());
  EXPECT_TRUE(RingConfiguration::Decode(RoutingView(1, 0, 100'000)).has_value());
  EXPECT_FALSE(RingConfiguration::Decode(RoutingView(1, 0, 100'001)).has_value());

  // The store and session-table caps are too large to fill in a unit
  // test: a count one above the cap with nothing behind it must be
  // rejected without allocating for the claimed count.
  {
    ByteWriter w;
    w.varint(50'000'001);  // KvStore rows
    smr::KvStore kv;
    EXPECT_FALSE(kv.Deserialize(w.data()));
  }
  // SessionTable: at most 10,000,000 sessions, applied seqnos above the
  // watermark, cached responses and rows per response.
  constexpr std::uint64_t kOver = 10'000'001;
  std::vector<Bytes> tables;
  {
    ByteWriter w;
    w.varint(kOver);  // sessions
    tables.push_back(w.take());
  }
  {
    ByteWriter w;
    w.varint(1);
    w.u64(7);         // session id
    w.u64(0);         // low
    w.varint(kOver);  // above
    tables.push_back(w.take());
  }
  {
    ByteWriter w;
    w.varint(1);
    w.u64(7);
    w.u64(0);
    w.varint(0);
    w.varint(kOver);  // responses
    tables.push_back(w.take());
  }
  {
    ByteWriter w;
    w.varint(1);
    w.u64(7);
    w.u64(0);
    w.varint(0);
    w.varint(1);
    w.u64(1);         // seq
    w.u8(1);          // ok
    w.varint(kOver);  // rows
    tables.push_back(w.take());
  }
  for (const Bytes& t : tables) {
    session::SessionTable table;
    EXPECT_FALSE(table.Deserialize(t));
  }
}

TEST(CodecHardening, StateFormatValidityChecksEnforced) {
  Bytes plan = state_samples::SampleSplit().Encode();
  plan[0] = 0xFD;  // not the plan magic
  EXPECT_FALSE(reconfig::ReconfigPlan::Decode(plan).has_value());
  plan = state_samples::SampleSplit().Encode();
  plan[1] = 3;  // no such ReconfigPlan::Kind
  EXPECT_FALSE(reconfig::ReconfigPlan::Decode(plan).has_value());
  Bytes cmd = smr::Command::Delete(1).Encode();
  cmd[0] = 6;  // no such Command::Op
  EXPECT_FALSE(smr::Command::Decode(cmd).has_value());
}

TEST(CodecHardening, FailedStateDecodeLeavesTargetUntouched) {
  smr::KvStore kv = state_samples::SampleKvStore();
  Bytes bad = kv.Serialize();
  bad.push_back(0);
  EXPECT_FALSE(kv.Deserialize(bad));
  EXPECT_EQ(kv.Fingerprint(), state_samples::SampleKvStore().Fingerprint());

  session::SessionTable table = state_samples::SampleSessionTable();
  bad = table.Serialize();
  bad.pop_back();
  EXPECT_FALSE(table.Deserialize(bad));
  EXPECT_EQ(table.Fingerprint(),
            state_samples::SampleSessionTable().Fingerprint());

  // A replica state whose session blob is malformed must leave the
  // store alone too, even though the store blob before it is valid.
  smr::Replica replica{smr::ReplicaConfig{}};
  ASSERT_TRUE(replica.RestoreState(state_samples::SampleReplicaState()));
  ByteWriter w;
  w.u64(99);
  w.bytes(smr::KvStore().Serialize());
  w.bytes(Bytes{0x05});  // session table claiming 5 sessions, none present
  w.varint(0);
  EXPECT_FALSE(replica.RestoreState(w.data()));
  EXPECT_EQ(replica.applied(), 7u);
  EXPECT_EQ(replica.store().Fingerprint(),
            state_samples::SampleKvStore().Fingerprint());
  EXPECT_EQ(replica.seals(), 1u);
}

}  // namespace
}  // namespace mrp::net
