// Admission control in front of a ring coordinator (docs/SESSIONS.md).
// The Gateway rate-limits client submissions against the ring's
// configured lambda with a token bucket, absorbs short bursts in a
// bounded FIFO queue, and sheds anything beyond it with an explicit
// Rejected(kOverload) back to the submitter — replacing silent queue
// growth with a signal smr::KvClient turns into backoff. Admitted
// submissions go to the ring's current coordinator through a
// ringpaxos::ClientCore, so the gateway's node must subscribe to the
// ring's control channel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>

#include "common/env.h"
#include "common/fingerprint.h"
#include "ringpaxos/client_core.h"
#include "ringpaxos/messages.h"
#include "session/messages.h"
#include "smr/command.h"

namespace mrp::session {

// Deterministic token bucket over sim/real time: `rate` tokens per
// second accrue up to `burst`.
struct TokenBucket {
  double rate = 0;   // tokens per second; 0 = unlimited
  double burst = 1;
  double tokens = 0;
  TimePoint last{0};

  void Refill(TimePoint now) {
    if (now <= last) return;
    tokens = std::min(burst, tokens + rate * ToSeconds(now - last));
    last = now;
  }
  bool TryTake(TimePoint now) {
    if (rate <= 0) return true;
    Refill(now);
    if (tokens < 1.0) return false;
    tokens -= 1.0;
    return true;
  }
  // Time until the next whole token accrues (0 when one is available).
  Duration NextTokenDelay() const {
    if (rate <= 0 || tokens >= 1.0) return Duration{0};
    return FromSeconds((1.0 - tokens) / rate);
  }
};

struct GatewayConfig {
  RingId ring = 0;
  NodeId coordinator = kNoNode;  // initial hint; heartbeats update it
  // Admission rate; size against the ring's lambda_per_sec so the ring
  // is never driven past its provisioned load.
  double rate_per_sec = 0;  // 0 = unlimited (pass-through)
  double burst = 32;
  // Submissions held while the bucket refills; beyond this, shed.
  std::size_t max_queue = 64;
};

class Gateway final : public Protocol {
 public:
  explicit Gateway(GatewayConfig cfg) : cfg_(cfg) {}

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t shed() const { return shed_; }
  std::size_t queued() const { return queue_.size(); }

  // State digest for the model checker (docs/MODEL_CHECKING.md).
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(admitted_);
    f.U64(shed_);
    f.U64(queue_.size());
    f.F64(bucket_.tokens);
    core_.Fold(f);
    return f.digest();
  }

 private:
  void Forward(Env& env, const MessagePtr& m);
  void Drain(Env& env);
  void UpdateGauges();

  GatewayConfig cfg_;
  ringpaxos::ClientCore core_;
  TokenBucket bucket_;
  std::deque<MessagePtr> queue_;
  bool drain_armed_ = false;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  Counter* ctr_admitted_ = nullptr;
  Counter* ctr_shed_ = nullptr;
  Gauge* g_queue_ = nullptr;
  Gauge* g_tokens_ = nullptr;
};

}  // namespace mrp::session
