#include "paxos/roles.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"

namespace mrp::paxos {

// ------------------------------------------------------------- Acceptor

PaxosAcceptor::PaxosAcceptor()
    : owned_storage_(std::make_unique<MemStorage>()), core_(*owned_storage_) {}

PaxosAcceptor::PaxosAcceptor(Storage& storage) : core_(storage) {}

void PaxosAcceptor::OnStart(Env& env) {
  MetricsRegistry& reg = env.metrics();
  ctr_p1a_ = &reg.counter("paxos.acceptor.p1a_rx");
  ctr_p2a_ = &reg.counter("paxos.acceptor.p2a_rx");
  ctr_promises_ = &reg.counter("paxos.acceptor.promises");
  ctr_nacks_ = &reg.counter("paxos.acceptor.p1_nacks");
  ctr_accepts_ = &reg.counter("paxos.acceptor.accepts");
  ctr_rejects_ = &reg.counter("paxos.acceptor.p2_rejects");
}

void PaxosAcceptor::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  if (const auto* p1a = Cast<Phase1A>(m)) {
    if (ctr_p1a_) ctr_p1a_->Inc();
    const InstanceId instance = p1a->instance;
    const Round round = p1a->round;
    core_.HandlePhase1(instance, round,
                       [this, &env, from, instance, round](AcceptorCore::PromiseResult r) {
                         if (!r.promised) {
                           // Reject silently; the proposer times out.
                           if (ctr_nacks_) ctr_nacks_->Inc();
                           return;
                         }
                         if (ctr_promises_) ctr_promises_->Inc();
                         env.Send(from, MakeMessage<Phase1B>(instance, round, r.accepted_round,
                                                             std::move(r.accepted)));
                       });
    return;
  }
  if (const auto* p2a = Cast<Phase2A>(m)) {
    if (ctr_p2a_) ctr_p2a_->Inc();
    const InstanceId instance = p2a->instance;
    const Round round = p2a->round;
    core_.HandlePhase2(instance, round, p2a->value, [this, &env, from, instance, round](bool ok) {
      if (!ok) {
        if (ctr_rejects_) ctr_rejects_->Inc();
        return;
      }
      if (ctr_accepts_) ctr_accepts_->Inc();
      env.Send(from, MakeMessage<Phase2B>(instance, round));
    });
    return;
  }
}

// ------------------------------------------------------------- Proposer

PaxosProposer::PaxosProposer(PaxosConfig config, std::size_t my_index)
    : cfg_(std::move(config)), my_index_(my_index) {}

Round PaxosProposer::OwnedRound(std::uint32_t attempt) const {
  // attempt 1 -> first owned round; rounds are partitioned by proposer.
  return static_cast<Round>(attempt * cfg_.proposers.size() + my_index_);
}

void PaxosProposer::OnStart(Env& env) {
  MetricsRegistry& reg = env.metrics();
  ctr_phase1_started_ = &reg.counter("paxos.proposer.phase1_started");
  ctr_phase2_started_ = &reg.counter("paxos.proposer.phase2_started");
  ctr_timeouts_ = &reg.counter("paxos.proposer.timeouts");
  ctr_decided_ = &reg.counter("paxos.proposer.decided");
  ctr_preempted_ = &reg.counter("paxos.proposer.preempted");
  last_sample_ = env.now();
  if (cfg_.lambda_per_sec > 0 && my_index_ == 0) {
    env.SetTimer(cfg_.delta, [this, &env] { OnDeltaTimer(env); });
  }
}

void PaxosProposer::OnDeltaTimer(Env& env) {
  // Algorithm 1 lines 13-20 over plain Paxos, with the same fractional
  // carry as the Ring Paxos coordinator.
  const double secs = ToSeconds(env.now() - last_sample_);
  if (secs > 0) {
    const double target = prev_k_ + cfg_.lambda_per_sec * secs;
    if (logical_k_ < std::floor(target)) {
      const auto count = static_cast<std::uint64_t>(std::floor(target) - logical_k_);
      StartInstanceWith(env, Value::Skip(count));
    }
    prev_k_ = std::max(logical_k_, target);
    last_sample_ = env.now();
  }
  env.SetTimer(cfg_.delta, [this, &env] { OnDeltaTimer(env); });
}

void PaxosProposer::StartInstanceWith(Env& env, Value value) {
  logical_k_ += static_cast<double>(value.LogicalInstances());
  const InstanceId instance = next_instance_++;
  Running& run = running_[instance];
  run.attempt = 1;
  run.round = OwnedRound(run.attempt);
  run.own = std::move(value);
  StartPhase1(env, instance);
}

void PaxosProposer::Submit(Env& env, ClientMsg msg) {
  pending_.push_back(std::move(msg));
  TryStartInstances(env);
}

void PaxosProposer::TryStartInstances(Env& env) {
  while (!pending_.empty() && running_.size() < cfg_.window) {
    std::vector<ClientMsg> batch;
    std::size_t bytes = 0;
    while (!pending_.empty() && bytes < cfg_.batch_bytes) {
      bytes += pending_.front().WireSize();
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    StartInstanceWith(env, Value::Batch(std::move(batch)));
  }
}

void PaxosProposer::StartPhase1(Env& env, InstanceId instance) {
  Running& run = running_.at(instance);
  run.promises = 0;
  run.best_vrnd = 0;
  run.adopted.reset();
  run.phase2 = false;
  run.accepts = 0;
  run.decided = false;
  if (ctr_phase1_started_) ctr_phase1_started_->Inc();
  for (NodeId a : cfg_.acceptors) {
    env.Send(a, MakeMessage<Phase1A>(instance, run.round));
  }
  if (run.timer != kNoTimer) env.CancelTimer(run.timer);
  run.timer = env.SetTimer(cfg_.phase_timeout,
                           [this, &env, instance] { OnTimeout(env, instance); });
}

void PaxosProposer::StartPhase2(Env& env, InstanceId instance) {
  Running& run = running_.at(instance);
  run.phase2 = true;
  run.accepts = 0;
  // Paxos value-selection rule: adopt the value with the highest vrnd
  // reported by the promise quorum, else propose our own.
  run.proposing = run.adopted ? *run.adopted : run.own;
  if (ctr_phase2_started_) ctr_phase2_started_->Inc();
  for (NodeId a : cfg_.acceptors) {
    env.Send(a, MakeMessage<Phase2A>(instance, run.round, run.proposing));
  }
}

void PaxosProposer::OnTimeout(Env& env, InstanceId instance) {
  auto it = running_.find(instance);
  if (it == running_.end() || it->second.decided) return;
  Running& run = it->second;
  run.timer = kNoTimer;
  if (ctr_timeouts_) ctr_timeouts_->Inc();
  ++run.attempt;
  run.round = OwnedRound(run.attempt);
  StartPhase1(env, instance);
}

void PaxosProposer::Finish(Env& env, InstanceId instance) {
  Running& run = running_.at(instance);
  run.decided = true;
  ++decided_count_;
  if (ctr_decided_) ctr_decided_->Inc();
  TraceProtocolEvent(env.now(), env.self(), kNoRing, instance, "paxos_proposer",
                     "decide", run.proposing.LogicalInstances());
  decided_log_[instance] = run.proposing;
  env.Multicast(cfg_.decision_channel,
                MakeMessage<DecisionMsg>(instance, run.proposing, cfg_.group));
  // If a competing proposer's value won this instance, our batch still
  // needs an instance of its own.
  const bool own_won = !run.adopted.has_value() || *run.adopted == run.own;
  if (!own_won) {
    if (ctr_preempted_) ctr_preempted_->Inc();
  }
  if (!own_won && !run.own.msgs.empty()) {
    for (auto& msg : run.own.msgs) pending_.push_front(std::move(msg));
  }
  if (run.timer != kNoTimer) env.CancelTimer(run.timer);
  running_.erase(instance);
  TryStartInstances(env);
}

void PaxosProposer::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  switch (m->tag()) {
    case SubmitReq::kTag: {
      const auto* submit = static_cast<const SubmitReq*>(m.get());
      Submit(env, submit->msg);
      return;
    }
    case Phase1B::kTag: {
      const auto* p1b = static_cast<const Phase1B*>(m.get());
      auto it = running_.find(p1b->instance);
      if (it == running_.end()) return;
      Running& run = it->second;
      if (run.phase2 || run.decided || p1b->round != run.round) return;
      ++run.promises;
      if (p1b->accepted && p1b->accepted_round >= run.best_vrnd) {
        run.best_vrnd = p1b->accepted_round;
        run.adopted = p1b->accepted;
      }
      if (run.promises >= cfg_.Majority()) StartPhase2(env, p1b->instance);
      return;
    }
    case Phase2B::kTag: {
      const auto* p2b = static_cast<const Phase2B*>(m.get());
      auto it = running_.find(p2b->instance);
      if (it == running_.end()) return;
      Running& run = it->second;
      if (!run.phase2 || run.decided || p2b->round != run.round) return;
      ++run.accepts;
      if (run.accepts >= cfg_.Majority()) Finish(env, p2b->instance);
      return;
    }
    case LearnReq::kTag: {
      const auto* req = static_cast<const LearnReq*>(m.get());
      // Retransmit up to a handful of decisions past the learner's gap.
      constexpr int kMaxReplies = 32;
      int sent = 0;
      for (auto it = decided_log_.lower_bound(req->from_instance);
           it != decided_log_.end() && sent < kMaxReplies; ++it, ++sent) {
        env.Send(from, MakeMessage<DecisionMsg>(it->first, it->second, cfg_.group));
      }
      return;
    }
    default:
      break;
  }
}

// ------------------------------------------------------------- Learner

bool PaxosGroupSource::OnMessage(Env& /*env*/, NodeId /*from*/,
                                 const MessagePtr& m) {
  const auto* dec = Cast<DecisionMsg>(m);
  if (dec == nullptr || dec->group != opts_.group) return false;
  if (window_.Insert(dec->instance, dec->value)) {
    buffered_ += dec->value.msgs.size();
  }
  return true;
}

std::optional<GroupSource::Ready> PaxosGroupSource::Pop() {
  if (window_.Peek() == nullptr) return std::nullopt;
  const InstanceId instance = window_.next();
  Value value = window_.Pop();
  buffered_ -= std::min(buffered_, value.msgs.size());
  return Ready{instance, std::move(value)};
}

void PaxosGroupSource::Tick(Env& env) {
  // A ready head is no gap, only a merge that has not consumed it yet.
  const bool stuck =
      !HasReady() && window_.next() == last_next_ && window_.buffered() > 0;
  last_next_ = window_.next();
  if (!stuck || opts_.proposers.empty()) return;
  const NodeId target = opts_.proposers[static_cast<std::size_t>(
      env.rng().below(opts_.proposers.size()))];
  env.Send(target, MakeMessage<LearnReq>(window_.next()));
}

}  // namespace mrp::paxos
