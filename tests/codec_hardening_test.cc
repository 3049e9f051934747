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

}  // namespace
}  // namespace mrp::net
