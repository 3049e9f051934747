// Workload-generating proposer. Covers every client behaviour the
// paper's evaluation needs:
//
//  * closed loop: keep `max_outstanding` messages in flight, submit a
//    new one per acknowledgement (latency-vs-throughput sweeps,
//    Figures 1, 5-8);
//  * open loop: Poisson or uniform arrivals at a rate that follows a
//    step schedule (Figures 9-10: rate raised every 20 s) optionally
//    modulated by a sinusoid (Figure 11: oscillating rates);
//  * windowed open loop: open loop that stops submitting when more than
//    `max_outstanding` messages are unacknowledged — this is what makes
//    the live ring throttle during the Figure 12 outage.
//
// Acknowledgements come either from the coordinator (SubmitAck) or from
// a learner (DeliveryAck); both are cumulative per group. Submissions go
// through a ClientCore, which follows the ring coordinator through
// control-channel heartbeats; when it moves, the proposer resubmits
// every unacknowledged message to the new one.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/env.h"
#include "common/fingerprint.h"
#include "common/stats.h"
#include "common/types.h"
#include "paxos/value.h"
#include "ringpaxos/client_core.h"
#include "ringpaxos/config.h"
#include "ringpaxos/messages.h"

namespace mrp::ringpaxos {

struct ProposerConfig {
  RingId ring = 0;
  GroupId group = 0;
  NodeId coordinator = kNoNode;  // initial coordinator hint
  std::uint32_t payload_size = 8 * 1024;

  // Open-loop rate schedule: the rate in msg/s that applies from `at`
  // onward. Empty schedule + max_outstanding > 0 => closed loop.
  struct RatePoint {
    TimePoint at{0};
    double rate = 0;
  };
  std::vector<RatePoint> schedule;
  bool poisson = true;

  // Sinusoidal modulation: rate *= 1 + amplitude * sin(2*pi*t/period).
  double osc_amplitude = 0;
  Duration osc_period = Seconds(20);

  // Initial submissions are staggered uniformly over this window so a
  // fleet of closed-loop clients does not start in lockstep.
  Duration start_jitter = Millis(5);
  // Client think time before the next closed-loop submission, uniform in
  // [0, think_jitter). Deliveries arrive in contiguous runs, so a fleet
  // of zero-think clients would answer in lockstep bursts that head-of-
  // line-block the coordinator's ingress — real clients do not.
  Duration think_jitter = Micros(200);

  // 0 = unbounded (pure open loop).
  std::size_t max_outstanding = 0;
  // Windowed proposers retransmit all unacknowledged messages when no
  // acknowledgement progress was made for this long (covers lost
  // submissions and submissions that raced a coordinator election).
  Duration retry_timeout = Millis(200);
  // Oracle tap (src/check): fired once per fresh submission (never for
  // retransmits), feeding the decision-integrity oracle's proposed set.
  std::function<void(const paxos::ClientMsg&)> on_submit;
};

class Proposer final : public Protocol {
 public:
  explicit Proposer(ProposerConfig cfg)
      : cfg_(std::move(cfg)), core_(cfg_.on_submit) {}

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  RateMeter& sent() { return sent_; }
  std::uint64_t acked_seq() const { return acked_seq_; }
  std::size_t outstanding() const { return outstanding_.size(); }
  std::vector<std::uint64_t> outstanding_seqs() const {
    std::vector<std::uint64_t> out;
    out.reserve(outstanding_.size());
    for (const auto& [seq, msg] : outstanding_) out.push_back(seq);
    return out;
  }
  bool blocked() const { return blocked_; }

  // State digest for the model checker (docs/MODEL_CHECKING.md): the
  // submission pipeline (coordinator view, sequence cursors, in-flight
  // window). Timing state (last_progress_, rate meter) is excluded.
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U32(core_.coordinator(cfg_.ring));
    f.U64(core_.last_seq());
    f.U64(acked_seq_);
    f.U64(outstanding_.size());
    for (const auto& [seq, msg] : outstanding_) {
      f.U64(seq);
      f.U64(msg.Fingerprint());
    }
    f.Bool(blocked_);
    f.U64(pending_submits_);
    return f.digest();
  }

 private:
  double CurrentRate(TimePoint now) const;
  void ScheduleNext(Env& env);
  void SubmitOne(Env& env);
  void ResendOutstanding(Env& env);
  // Cumulative acknowledgement (SubmitAck: valid within one coordinator
  // epoch, where proposals are FIFO).
  void OnCumulativeAck(Env& env, std::uint64_t up_to_seq);
  // Exact acknowledgement (DeliveryAck: delivery order is not sender-
  // FIFO across coordinator changes, so only the acked seq is released).
  void OnExactAck(Env& env, std::uint64_t seq);
  void AfterAck(Env& env);
  void ArmRetry(Env& env);
  bool WindowFull() const {
    return cfg_.max_outstanding > 0 &&
           outstanding_.size() + pending_submits_ >= cfg_.max_outstanding;
  }
  bool closed_loop() const { return cfg_.schedule.empty(); }

  ProposerConfig cfg_;
  ClientCore core_;
  std::uint64_t acked_seq_ = 0;  // all seq <= acked_seq_ are acknowledged
  std::map<std::uint64_t, paxos::ClientMsg> outstanding_;  // by seq
  bool blocked_ = false;  // open loop: the send loop stalled on the window
  std::size_t pending_submits_ = 0;  // closed loop: scheduled, not yet sent
  TimePoint last_progress_{0};
  RateMeter sent_;
  // Instruments (resolved in OnStart).
  Counter* ctr_submitted_ = nullptr;
  Counter* ctr_retransmits_ = nullptr;
  Counter* ctr_acks_rx_ = nullptr;
  Counter* ctr_coordinator_changes_ = nullptr;
};

}  // namespace mrp::ringpaxos
