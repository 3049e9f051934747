// Fixture: codec-coverage also scans src/smr/command.h. Reply is not in
// the wire registry and is flagged.
#pragma once

struct MessageBase {};

namespace fixture {
struct Reply final : MessageBase {
  int status = 0;
};
}  // namespace fixture
