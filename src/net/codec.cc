#include "net/codec.h"

#include <array>

#include "common/wire.h"
#include "net/registry.h"

namespace mrp::net {
namespace {

// One registry entry, indexed by tag.
struct Codec {
  const MessageType* type = nullptr;
  void (*encode)(ByteWriter&, const MessageBase&) = nullptr;
  MessagePtr (*decode)(ByteReader&) = nullptr;
};

template <class M>
void EncodeAs(ByteWriter& w, const MessageBase& msg) {
  w.u8(M::kTag);
  wire::Put(w, static_cast<const M&>(msg));
}

template <class M>
MessagePtr DecodeAs(ByteReader& r) {
  auto m = std::make_shared<M>();
  if (!wire::Get(r, *m)) return nullptr;
  return m;
}

template <class... Ms>
constexpr std::array<Codec, 256> MakeCodecs(MessageList<Ms...>) {
  std::array<Codec, 256> codecs{};
  ((codecs[Ms::kTag] = Codec{&Ms::kType, &EncodeAs<Ms>, &DecodeAs<Ms>}), ...);
  return codecs;
}

constexpr std::array<Codec, 256> kCodecs = MakeCodecs(WireMessages{});

// A frame is exactly one message: bytes left over make it malformed.
MessagePtr DecodeFrame(ByteReader& r) {
  auto tag = r.u8();
  if (!tag || kCodecs[*tag].decode == nullptr) return nullptr;
  MessagePtr m = kCodecs[*tag].decode(r);
  return r.done() ? m : nullptr;
}

}  // namespace

Bytes EncodeMessage(const MessageBase& msg) {
  ByteWriter w(msg.WireSize());
  if (!EncodeMessageTo(w, msg)) return {};
  return w.take();
}

bool EncodeMessageTo(ByteWriter& w, const MessageBase& msg) {
  const MessageType& type = msg.type();
  const Codec& codec = kCodecs[type.tag];
  if (codec.type != &type) return false;
  codec.encode(w, msg);
  return true;
}

MessagePtr DecodeMessage(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  return DecodeFrame(r);
}

MessagePtr DecodeMessage(SharedFrame frame, std::size_t offset) {
  if (frame == nullptr) return nullptr;
  ByteReader r(std::move(frame), offset);
  return DecodeFrame(r);
}

}  // namespace mrp::net
