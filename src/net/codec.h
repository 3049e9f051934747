// Wire codec for the real transports. Frames are a one-byte tag followed
// by the message's fields; both, and the field encodings, come from the
// message's MRP_WIRE_MESSAGE declaration (common/wire.h), and
// net/registry.h lists the encodable messages. The simulator never
// serializes: it passes messages by pointer and charges WireSize(), the
// size pass of the same field walk.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/message.h"

namespace mrp::net {

// A receive frame whose ownership can be shared with decoded messages
// (zero-copy decode below).
using SharedFrame = std::shared_ptr<const Bytes>;

// Returns an empty buffer if the message type is not in the registry.
Bytes EncodeMessage(const MessageBase& msg);

// Appends the encoding of `msg` to `w`, so transports can frame
// (header + message) in one buffer without an intermediate copy.
// Returns false if the message type is not in the registry.
bool EncodeMessageTo(ByteWriter& w, const MessageBase& msg);

// Returns nullptr on malformed input, including a frame with bytes left
// over after the message. Payload bytes are copied out of the frame.
MessagePtr DecodeMessage(std::span<const std::uint8_t> frame);

// Zero-copy decode: ClientMsg payloads in the returned message are
// ConstByteView views into *frame, which the message keeps alive by
// shared ownership. Byte-identical to the copying overload for every
// message type (tests/plumbing_test.cc asserts this). `offset` skips a
// transport header sharing the frame buffer (UDP's sender-id prefix).
MessagePtr DecodeMessage(SharedFrame frame, std::size_t offset = 0);

}  // namespace mrp::net
