#include "ringpaxos/proposer.h"

#include <cmath>
#include <numbers>

#include "common/trace.h"

namespace mrp::ringpaxos {

void Proposer::OnStart(Env& env) {
  MetricsRegistry& reg = env.metrics();
  ctr_submitted_ = &reg.counter("proposer.submitted");
  ctr_retransmits_ = &reg.counter("proposer.retransmits");
  ctr_acks_rx_ = &reg.counter("proposer.acks_rx");
  ctr_coordinator_changes_ = &reg.counter("proposer.coordinator_changes");
  core_.Seed(cfg_.ring, cfg_.coordinator);
  last_progress_ = env.now();
  if (cfg_.max_outstanding > 0) ArmRetry(env);
  Duration jitter{0};
  if (cfg_.start_jitter.count() > 0) {
    jitter = Duration(static_cast<std::int64_t>(
        env.rng().uniform() * static_cast<double>(cfg_.start_jitter.count())));
  }
  if (closed_loop()) {
    // Fill the window; each ack triggers the next submission.
    env.SetTimer(jitter, [this, &env] {
      const std::size_t n = cfg_.max_outstanding > 0 ? cfg_.max_outstanding : 1;
      for (std::size_t i = 0; i < n; ++i) SubmitOne(env);
    });
  } else {
    env.SetTimer(jitter, [this, &env] { ScheduleNext(env); });
  }
}

double Proposer::CurrentRate(TimePoint now) const {
  double rate = 0;
  for (const auto& p : cfg_.schedule) {
    if (now >= p.at) rate = p.rate;
  }
  if (cfg_.osc_amplitude > 0 && rate > 0) {
    const double t = ToSeconds(now);
    const double period = ToSeconds(cfg_.osc_period);
    rate *= 1.0 + cfg_.osc_amplitude *
                      std::sin(2.0 * std::numbers::pi * t / period);
    if (rate < 0) rate = 0;
  }
  return rate;
}

void Proposer::ScheduleNext(Env& env) {
  const double rate = CurrentRate(env.now());
  Duration delay;
  if (rate <= 0) {
    delay = Millis(10);  // idle; poll the schedule again shortly
  } else {
    const double mean = 1.0 / rate;
    delay = FromSeconds(cfg_.poisson ? env.rng().exponential(mean) : mean);
  }
  env.SetTimer(delay, [this, &env] {
    if (CurrentRate(env.now()) > 0) {
      if (WindowFull()) {
        blocked_ = true;  // resume on ack; do not accumulate a backlog
      } else {
        SubmitOne(env);
      }
    }
    ScheduleNext(env);
  });
}

void Proposer::SubmitOne(Env& env) {
  paxos::ClientMsg msg;
  msg.group = cfg_.group;
  msg.payload_size = cfg_.payload_size;
  core_.Stamp(env, msg);
  // Outstanding tracking requires acknowledgements; a pure open-loop
  // proposer (no window) would otherwise accumulate forever.
  if (cfg_.max_outstanding > 0) outstanding_.emplace(msg.seq, msg);
  sent_.Add(1, msg.payload_size);
  if (ctr_submitted_) ctr_submitted_->Inc();
  core_.Submit(env, cfg_.ring, std::move(msg));
}

void Proposer::ResendOutstanding(Env& env) {
  for (const auto& [seq, msg] : outstanding_) {
    if (ctr_retransmits_) ctr_retransmits_->Inc();
    core_.Forward(env, cfg_.ring, MakeMessage<Submit>(cfg_.ring, msg));
  }
}

void Proposer::ArmRetry(Env& env) {
  env.SetTimer(cfg_.retry_timeout, [this, &env] {
    if (!outstanding_.empty() &&
        env.now() - last_progress_ >= cfg_.retry_timeout &&
        core_.coordinator(cfg_.ring) != kNoNode) {
      ResendOutstanding(env);
      TraceProtocolEvent(env.now(), env.self(), cfg_.ring, kNoInstance,
                         "proposer", "retry_burst", outstanding_.size());
      last_progress_ = env.now();  // back off until the next timeout
    }
    ArmRetry(env);
  });
}

void Proposer::OnCumulativeAck(Env& env, std::uint64_t up_to_seq) {
  last_progress_ = env.now();
  if (up_to_seq <= acked_seq_) return;
  acked_seq_ = std::max(acked_seq_, up_to_seq);
  outstanding_.erase(outstanding_.begin(), outstanding_.upper_bound(up_to_seq));
  AfterAck(env);
}

void Proposer::OnExactAck(Env& env, std::uint64_t seq) {
  last_progress_ = env.now();
  acked_seq_ = std::max(acked_seq_, seq);
  if (outstanding_.erase(seq) == 0) return;
  AfterAck(env);
}

void Proposer::AfterAck(Env& env) {
  if (closed_loop()) {
    // Refill the window after a short, randomised think time so a fleet
    // of clients acked by the same delivery run does not resubmit in one
    // burst (see ProposerConfig::think_jitter).
    while (!WindowFull()) {
      ++pending_submits_;
      Duration think{0};
      if (cfg_.think_jitter.count() > 0) {
        think = Duration(static_cast<std::int64_t>(
            env.rng().uniform() * static_cast<double>(cfg_.think_jitter.count())));
      }
      env.SetTimer(think, [this, &env] {
        if (pending_submits_ > 0) --pending_submits_;
        SubmitOne(env);
      });
    }
  } else if (blocked_ && !WindowFull()) {
    blocked_ = false;
    SubmitOne(env);
  }
}

void Proposer::OnMessage(Env& env, NodeId /*from*/, const MessagePtr& m) {
  const RingMessage* rm = AsRingMessage(*m);
  if (rm == nullptr || rm->ring != cfg_.ring) return;
  if (core_.OnMessage(*m)) {
    if (ctr_coordinator_changes_) ctr_coordinator_changes_->Inc();
    ResendOutstanding(env);
    return;
  }

  switch (m->tag()) {
    case SubmitAck::kTag: {
      const auto& ack = static_cast<const SubmitAck&>(*m);
      if (ack.group == cfg_.group) {
        if (ctr_acks_rx_) ctr_acks_rx_->Inc();
        OnCumulativeAck(env, ack.up_to_seq);
      }
      break;
    }
    case DeliveryAck::kTag: {
      const auto& ack = static_cast<const DeliveryAck&>(*m);
      if (ack.group == cfg_.group) {
        if (ctr_acks_rx_) ctr_acks_rx_->Inc();
        OnExactAck(env, ack.seq);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace mrp::ringpaxos
