#include "session/admission.h"

namespace mrp::session {

void Gateway::OnStart(Env& env) {
  bucket_.rate = cfg_.rate_per_sec;
  bucket_.burst = cfg_.burst;
  bucket_.tokens = cfg_.burst;
  bucket_.last = env.now();
  core_.Seed(cfg_.ring, cfg_.coordinator);
  ctr_admitted_ = &env.metrics().counter("session.gateway.admitted");
  ctr_shed_ = &env.metrics().counter("session.gateway.shed");
  g_queue_ = &env.metrics().gauge("session.gateway.queue_depth");
  g_tokens_ = &env.metrics().gauge("session.gateway.tokens");
  UpdateGauges();
}

void Gateway::UpdateGauges() {
  if (g_queue_) g_queue_->Set(static_cast<std::int64_t>(queue_.size()));
  if (g_tokens_) g_tokens_->Set(static_cast<std::int64_t>(bucket_.tokens));
}

void Gateway::Forward(Env& env, const MessagePtr& m) {
  ++admitted_;
  if (ctr_admitted_) ctr_admitted_->Inc();
  core_.Forward(env, cfg_.ring, m);
}

void Gateway::Drain(Env& env) {
  drain_armed_ = false;
  while (!queue_.empty() && bucket_.TryTake(env.now())) {
    Forward(env, queue_.front());
    queue_.pop_front();
  }
  if (!queue_.empty() && !drain_armed_) {
    drain_armed_ = true;
    const Duration d = std::max(bucket_.NextTokenDelay(), Duration{1});
    env.SetTimer(d, [this, &env] { Drain(env); });
  }
  UpdateGauges();
}

void Gateway::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  if (core_.OnMessage(*m)) return;
  const auto* s = Cast<ringpaxos::Submit>(m);
  if (s == nullptr || s->ring != cfg_.ring) return;
  if (queue_.empty() && bucket_.TryTake(env.now())) {
    Forward(env, m);
    UpdateGauges();
    return;
  }
  if (queue_.size() < cfg_.max_queue) {
    queue_.push_back(m);
    if (!drain_armed_) {
      drain_armed_ = true;
      const Duration d = std::max(bucket_.NextTokenDelay(), Duration{1});
      env.SetTimer(d, [this, &env] { Drain(env); });
    }
    UpdateGauges();
    return;
  }
  // Shed: tell the submitter explicitly instead of letting the queue
  // grow. Session identity comes from the command payload; a payload
  // that is not a Command is shed without a notification.
  ++shed_;
  if (ctr_shed_) ctr_shed_->Inc();
  if (auto cmd = smr::Command::Decode(s->msg.payload)) {
    env.Send(from, MakeMessage<Rejected>(cmd->session_id, cmd->req_id,
                                         Rejected::kOverload));
  }
  UpdateGauges();
}

}  // namespace mrp::session
