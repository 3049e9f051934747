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

}  // namespace
}  // namespace mrp
