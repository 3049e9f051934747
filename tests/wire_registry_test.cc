// Round-trips every message in the wire registry (net/registry.h): for
// each registered type, a populated sample must decode (copying and
// zero-copy) and re-encode to the same bytes, and WireSize() must equal
// the encoded size -- with elided ClientMsg payloads counted as present,
// which is what the simulator charges for them.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "net/codec.h"
#include "net/registry.h"
#include "wire_samples.h"

namespace mrp::net {
namespace {

template <class L>
struct ToTypes;
template <class... Ms>
struct ToTypes<MessageList<Ms...>> {
  using type = ::testing::Types<Ms...>;
};

template <class T>
MessagePtr FindSample(const std::vector<MessagePtr>& samples) {
  for (const auto& m : samples) {
    if (Cast<T>(m) != nullptr) return m;
  }
  return nullptr;
}

template <class T>
class WireRegistry : public ::testing::Test {};
TYPED_TEST_SUITE(WireRegistry, ToTypes<WireMessages>::type);

TYPED_TEST(WireRegistry, RoundTripsAndSizesExactly) {
  using T = TypeParam;
  const MessagePtr full = FindSample<T>(wire_samples::WireSamples(false));
  const MessagePtr elided = FindSample<T>(wire_samples::WireSamples(true));
  ASSERT_NE(full, nullptr) << "no sample in tests/wire_samples.h";
  ASSERT_NE(elided, nullptr);

  const Bytes bytes = EncodeMessage(*full);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes[0], T::kTag);
  EXPECT_EQ(full->WireSize(), bytes.size());
  EXPECT_EQ(elided->WireSize(), bytes.size()) << "elided payloads count as present";

  const MessagePtr copied = DecodeMessage(bytes);
  ASSERT_NE(Cast<T>(copied), nullptr);
  EXPECT_EQ(EncodeMessage(*copied), bytes);
  EXPECT_STREQ(copied->TypeName(), full->TypeName());

  const MessagePtr viewed = DecodeMessage(std::make_shared<const Bytes>(bytes));
  ASSERT_NE(Cast<T>(viewed), nullptr);
  EXPECT_EQ(EncodeMessage(*viewed), bytes);

  const Bytes elided_bytes = EncodeMessage(*elided);
  const MessagePtr elided_back = DecodeMessage(elided_bytes);
  ASSERT_NE(elided_back, nullptr);
  EXPECT_EQ(EncodeMessage(*elided_back), elided_bytes);

  EXPECT_EQ(ringpaxos::AsRingMessage(*full) != nullptr,
            (std::is_base_of_v<ringpaxos::RingMessage, T>));
}

TEST(WireRegistry, EverySampleIsRegistered) {
  for (const auto& m : wire_samples::WireSamples(false)) {
    EXPECT_FALSE(EncodeMessage(*m).empty()) << m->TypeName();
  }
}

}  // namespace
}  // namespace mrp::net
