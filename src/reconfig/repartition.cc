#include "reconfig/repartition.h"

#include <utility>

#include "common/trace.h"
#include "smr/command.h"

namespace mrp::reconfig {

void SubmitSwap(Env& env, ringpaxos::ClientCore& core,
                const ringpaxos::RingConfig& ring, const ReconfigPlan& plan) {
  paxos::ClientMsg msg;
  msg.group = ring.group;
  msg.payload = plan.Encode();
  msg.payload_size = static_cast<std::uint32_t>(msg.payload.size());
  core.Stamp(env, msg);
  core.Submit(env, ring.ring, std::move(msg));
}

void RepartitionCoordinator::OnStart(Env& env) {
  const auto& members = cfg_.source_ring.ring_members;
  core_.Seed(cfg_.source_ring.ring, members.empty() ? kNoNode : members[0]);
  ctr_seal_attempts_ = &env.metrics().counter("reconfig.seal_attempts");
  ctr_done_ = &env.metrics().counter("reconfig.plans_done");
  env.SetTimer(cfg_.start_delay, [this, &env] { Begin(env); });
}

void RepartitionCoordinator::Begin(Env& env) {
  if (phase_ != Phase::kIdle) return;
  phase_ = Phase::kSealing;
  TraceProtocolEvent(env.now(), env.self(), cfg_.source_ring.ring, kNoInstance,
                     "reconfig", "seal_begin", cfg_.plan.plan_id);
  SubmitSeal(env);
  env.SetTimer(cfg_.retry, [this, &env] { Tick(env); });
}

void RepartitionCoordinator::Tick(Env& env) {
  switch (phase_) {
    case Phase::kIdle:
      break;
    case Phase::kSealing:
      // Retry: the previous submit or its response may have been lost,
      // or the coordinator moved (the core's hint follows it).
      SubmitSeal(env);
      break;
    case Phase::kFlipped:
      // Re-broadcast the routing flip (updates are idempotent by
      // version) and probe the target until PlanStatus arrives.
      BroadcastRouting(env);
      if (cfg_.target_replica != kNoNode) {
        env.Send(cfg_.target_replica,
                 MakeMessage<HandoffRequest>(cfg_.plan.plan_id,
                                             cfg_.plan.target_group));
      }
      break;
    case Phase::kDone:
      return;  // no more ticks
  }
  env.SetTimer(cfg_.retry, [this, &env] { Tick(env); });
}

void RepartitionCoordinator::SubmitSeal(Env& env) {
  ++seal_attempts_;
  if (ctr_seal_attempts_) ctr_seal_attempts_->Inc();
  smr::Command seal = smr::Command::Seal(cfg_.plan.plan_id, cfg_.plan.lo,
                                         cfg_.plan.hi, cfg_.plan.target_group);
  seal.client = env.self();
  paxos::ClientMsg msg;
  msg.group = cfg_.plan.source_group;
  msg.payload = seal.Encode();
  msg.payload_size = static_cast<std::uint32_t>(msg.payload.size());
  core_.Stamp(env, msg);
  core_.Submit(env, cfg_.source_ring.ring, std::move(msg));
}

void RepartitionCoordinator::BroadcastRouting(Env& env) {
  const Bytes encoded = cfg_.next.Encode();
  for (NodeId n : cfg_.notify) {
    env.Send(n, MakeMessage<RoutingUpdate>(cfg_.next.version(), encoded));
  }
  ++updates_sent_;
}

void RepartitionCoordinator::OnMessage(Env& env, NodeId /*from*/,
                                       const MessagePtr& m) {
  if (core_.OnMessage(*m)) return;
  if (const auto* resp = Cast<smr::Response>(m)) {
    // Seal ack: a source replica applied (or re-acknowledged) the seal.
    if (phase_ == Phase::kSealing && resp->ok &&
        resp->req_id == cfg_.plan.plan_id) {
      phase_ = Phase::kFlipped;
      if (cfg_.holder != nullptr) cfg_.holder->Install(cfg_.next);
      TraceProtocolEvent(env.now(), env.self(), cfg_.source_ring.ring,
                         kNoInstance, "reconfig", "flip", cfg_.plan.plan_id);
      BroadcastRouting(env);
      if (cfg_.target_replica != kNoNode) {
        env.Send(cfg_.target_replica,
                 MakeMessage<HandoffRequest>(cfg_.plan.plan_id,
                                             cfg_.plan.target_group));
      }
    }
    return;
  }
  if (const auto* status = Cast<PlanStatus>(m)) {
    if (phase_ == Phase::kFlipped && status->ok &&
        status->plan_id == cfg_.plan.plan_id) {
      phase_ = Phase::kDone;
      if (ctr_done_) ctr_done_->Inc();
      TraceProtocolEvent(env.now(), env.self(), cfg_.source_ring.ring,
                         kNoInstance, "reconfig", "done", cfg_.plan.plan_id);
      if (cfg_.on_done) cfg_.on_done(cfg_.plan);
    }
    return;
  }
}

}  // namespace mrp::reconfig
