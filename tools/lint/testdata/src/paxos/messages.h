// Fixture: codec-coverage. Ping is missing from the wire registry
// (src/net/registry.h) and is flagged; Pong is listed there and is not.
#pragma once

struct MessageBase {};

namespace fixture {
struct Ping final : MessageBase {
  int nonce = 0;
};

struct Pong final : MessageBase {
  int nonce = 0;
};
}  // namespace fixture
