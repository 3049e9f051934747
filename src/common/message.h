// Type-erased protocol message. Messages are immutable once sent and are
// shared (shared_ptr<const ...>) so an ip-multicast delivers one
// allocation to every subscriber.
//
// Every message type has one static MessageType: its wire tag and its
// stable name. Wire messages declare it, with their field list, through
// MRP_WIRE_MESSAGE (common/wire.h); the codec, WireSize() and dispatch
// all come from that declaration, and net/registry.h lists them. Messages
// that never leave the simulator (the baselines, test fixtures) declare
// a MessageType with tag 0 and give their own WireSize().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace mrp {

struct MessageType {
  std::uint8_t tag;  // wire tag; 0 = never encoded
  const char* name;  // stable name for tracing, debugging and mrp_mc policies
};

class MessageBase {
 public:
  virtual ~MessageBase() = default;

  // Bytes charged for this message by the simulator's bandwidth/CPU
  // accounting. For wire messages this is exactly the codec's encoded
  // size, counting an elided ClientMsg payload as present.
  virtual std::size_t WireSize() const = 0;

  virtual const MessageType& type() const = 0;

  std::uint8_t tag() const { return type().tag; }
  const char* TypeName() const { return type().name; }
};

using MessagePtr = std::shared_ptr<const MessageBase>;

// Downcast helper: returns nullptr if the message is not a T. Compares
// the static MessageType, so it needs no RTTI.
template <typename T>
const T* Cast(const MessagePtr& m) {
  return m != nullptr && &m->type() == &T::kType ? static_cast<const T*>(m.get())
                                                 : nullptr;
}

template <typename T, typename... Args>
MessagePtr MakeMessage(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

}  // namespace mrp
