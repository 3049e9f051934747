#include "ringpaxos/ring_node.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"
// Header-only definitions; no link dependency on mrp_recovery/mrp_reconfig.
#include "reconfig/plan.h"
#include "recovery/messages.h"

namespace mrp::ringpaxos {

using paxos::Value;

RingNode::RingNode(RingConfig cfg, paxos::Storage* storage)
    : cfg_(std::move(cfg)),
      owned_storage_(storage ? nullptr : std::make_unique<paxos::MemStorage>()),
      core_(storage ? *storage : *owned_storage_) {}

void RingNode::OnStart(Env& env) {
  self_ = env.self();
  MetricsRegistry& reg = env.metrics();
  ctr_proposed_logical_ = &reg.counter("ring.proposed_logical");
  ctr_proposed_skip_logical_ = &reg.counter("ring.proposed_skip_logical");
  ctr_decided_logical_ = &reg.counter("ring.decided_logical");
  ctr_decided_msgs_ = &reg.counter("ring.decided_msgs");
  ctr_skip_proposals_ = &reg.counter("ring.skip_proposals");
  ctr_submits_rx_ = &reg.counter("ring.submits_rx");
  ctr_p2a_rx_ = &reg.counter("ring.p2a_rx");
  ctr_p2b_rx_ = &reg.counter("ring.p2b_rx");
  ctr_retransmits_ = &reg.counter("ring.p2_retransmits");
  ctr_takeovers_ = &reg.counter("ring.takeovers");
  layouts_[0] = cfg_.ring_members;
  last_sample_ = env.now();
  last_leader_sign_ = env.now();
  if (cfg_.RoundOwner(0) == self_) {
    StartTakeover(env, cfg_.ring_members);
  } else if (cfg_.InUniverse(self_)) {
    follower_timer_ = env.SetTimer(cfg_.heartbeat_interval,
                                   [this, &env] { OnFollowerCheckTimer(env); });
  }
}

// --------------------------------------------------------------- helpers

const std::vector<NodeId>* RingNode::LayoutFor(Round r) const {
  auto it = layouts_.find(r);
  return it == layouts_.end() ? nullptr : &it->second;
}

int RingNode::PositionIn(const std::vector<NodeId>& layout, NodeId n) const {
  for (std::size_t i = 0; i < layout.size(); ++i) {
    if (layout[i] == n) return static_cast<int>(i);
  }
  return -1;
}

ValueId RingNode::NextVid() {
  // Unique across coordinators: high bits carry the round (owned by a
  // single node), low bits a local counter.
  return (static_cast<ValueId>(round_) << 40) | ++vid_seq_;
}

// ---------------------------------------------------------- message pump

void RingNode::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  // Frontier adverts are cluster-scoped (one message lists every ring)
  // rather than RingMessages, so they are dispatched before the ring
  // filter below.
  if (const auto* advert = Cast<recovery::FrontierAdvert>(m)) {
    if (!cfg_.frontier_gated_trim) return;
    for (const auto& f : advert->frontiers) {
      if (f.ring == cfg_.ring && f.next_instance > stable_frontier_) {
        stable_frontier_ = f.next_instance;
        TraceProtocolEvent(env.now(), env.self(), cfg_.ring, stable_frontier_,
                           "acceptor", "stable_frontier", advert->epoch);
      }
    }
    AdvanceDecidedWatermark();
    return;
  }
  const RingMessage* rm = AsRingMessage(*m);
  if (rm == nullptr || rm->ring != cfg_.ring) return;

  switch (m->tag()) {
    case P2A::kTag:
      if (ctr_p2a_rx_) ctr_p2a_rx_->Inc();
      OnP2A(env, static_cast<const P2A&>(*m));
      break;
    case P2B::kTag:
      if (ctr_p2b_rx_) ctr_p2b_rx_->Inc();
      OnP2B(env, from, static_cast<const P2B&>(*m));
      break;
    case Submit::kTag:
      if (ctr_submits_rx_) ctr_submits_rx_->Inc();
      OnSubmit(env, static_cast<const Submit&>(*m));
      break;
    case P1A::kTag:
      OnP1A(env, from, static_cast<const P1A&>(*m));
      break;
    case P1B::kTag:
      OnP1B(env, from, static_cast<const P1B&>(*m));
      break;
    case DecisionMsg::kTag:
      NoteDecided(static_cast<const DecisionMsg&>(*m).decided);
      last_leader_sign_ = env.now();
      break;
    case Heartbeat::kTag: {
      const auto& hb = static_cast<const Heartbeat&>(*m);
      last_leader_sign_ = env.now();
      if (hb.round > round_) round_ = hb.round;
      if (role_ == Role::kCandidate && hb.round > candidate_round_) {
        BecomeFollower(env, hb.round);
      }
      if (role_ != Role::kLeader && cfg_.InUniverse(self_)) {
        env.Send(hb.coordinator, MakeMessage<HeartbeatAck>(cfg_.ring, hb.round));
      }
      break;
    }
    case HeartbeatAck::kTag:
      if (role_ == Role::kLeader &&
          static_cast<const HeartbeatAck&>(*m).round == round_) {
        member_last_ack_[from] = env.now();
      }
      break;
    case LearnReq::kTag:
      OnLearnReq(env, from, static_cast<const LearnReq&>(*m));
      break;
    default:
      break;
  }
}

// ----------------------------------------------------------- acceptor side

void RingNode::OnP2A(Env& env, const P2A& msg) {
  if (msg.round > round_) {
    if (role_ != Role::kFollower) BecomeFollower(env, msg.round);
    round_ = msg.round;
  }
  if (layouts_.find(msg.round) == layouts_.end()) layouts_[msg.round] = msg.layout;
  last_leader_sign_ = env.now();
  NoteDecided(msg.decided);

  const InstanceId instance = msg.instance;
  const Round round = msg.round;
  const ValueId vid = msg.vid;
  core_.HandlePhase2(instance, round, msg.value, [this, &env, instance, round, vid](bool ok) {
    if (!ok) return;
    InstanceState& st = instances_[instance];
    st.has_mark = true;
    st.mark_round = round;
    st.mark_vid = vid;
    ForwardP2B(env, instance, st);
  });
}

void RingNode::ForwardP2B(Env& env, InstanceId instance, InstanceState& st) {
  if (!st.has_mark) return;
  const std::vector<NodeId>* layout = LayoutFor(st.mark_round);
  if (layout == nullptr) return;
  const int pos = PositionIn(*layout, self_);
  if (pos <= 0) return;  // not a ring member, or the coordinator itself
  const std::size_t n = layout->size();
  const NodeId next = (*layout)[(static_cast<std::size_t>(pos) + 1) % n];
  if (pos == 1) {
    // First acceptor after the coordinator: originate the Phase 2B.
    env.Send(next, MakeMessage<P2B>(cfg_.ring, st.mark_round, instance, st.mark_vid, 1));
    return;
  }
  if (!st.has_p2b || st.p2b_round != st.mark_round || st.p2b_vid != st.mark_vid) {
    return;
  }
  st.has_p2b = false;
  env.Send(next, MakeMessage<P2B>(cfg_.ring, st.mark_round, instance, st.mark_vid,
                                  st.p2b_votes + 1));
}

void RingNode::OnP2B(Env& env, NodeId /*from*/, const P2B& msg) {
  if (role_ == Role::kLeader && msg.round == round_) {
    auto it = outstanding_.find(msg.instance);
    if (it == outstanding_.end() || it->second.vid != msg.vid) return;
    const std::vector<NodeId>* layout = LayoutFor(round_);
    if (layout == nullptr) return;
    // A full ring of votes only implies a decision if the ring is itself
    // a majority of the universe — never decide through a smaller one.
    // (Guard disabled only by the test_unsafe_submajority_layout bug
    // fixture, config.h.)
    if (!cfg_.test_unsafe_submajority_layout &&
        layout->size() < cfg_.UniverseMajority()) {
      return;
    }
    if (msg.votes + 1 >= layout->size()) {
      it->second.ring_voted = true;
      CheckInstanceDecided(env, msg.instance);
    }
    return;
  }
  // Acceptor in the middle of the ring: keep the highest-vote copy and
  // forward once our own acceptance is durable.
  InstanceState& st = instances_[msg.instance];
  if (!st.has_p2b || msg.round > st.p2b_round ||
      (msg.round == st.p2b_round && msg.votes > st.p2b_votes)) {
    st.has_p2b = true;
    st.p2b_round = msg.round;
    st.p2b_vid = msg.vid;
    st.p2b_votes = msg.votes;
  }
  ForwardP2B(env, msg.instance, st);
}

void RingNode::NoteDecided(const std::vector<Decided>& decided) {
  if (decided.empty()) return;
  for (const auto& d : decided) {
    if (d.instance < decided_watermark_) continue;
    InstanceState& st = instances_[d.instance];
    st.decided = true;
    st.decided_vid = d.vid;
  }
  AdvanceDecidedWatermark();
}

void RingNode::AdvanceDecidedWatermark() {
  while (true) {
    const InstanceState* st = instances_.Find(decided_watermark_);
    if (st == nullptr || !st->decided) break;
    const paxos::AcceptorRecord* rec = core_.Get(decided_watermark_);
    if (rec == nullptr || !rec->accepted) break;  // span unknown yet
    decided_watermark_ += rec->accepted->LogicalInstances();
  }
  if (decided_watermark_ > cfg_.trim_keep) {
    InstanceId below = decided_watermark_ - cfg_.trim_keep;
    // Safety-tied trimming (docs/RECOVERY.md): with frontier gating the
    // trim point is capped by the cluster-wide stable checkpoint
    // frontier, so a recovering learner can always replay from its
    // restored cut. Until a frontier is advertised nothing is trimmed.
    if (cfg_.frontier_gated_trim && below > stable_frontier_) {
      below = stable_frontier_;
    }
    if (below == 0) return;
    core_.storage().Trim(below);
    instances_.Trim(below);
  }
}

void RingNode::OnLearnReq(Env& env, NodeId from, const LearnReq& msg) {
  // History below the trim point is gone: report the replayable window
  // so the learner can fast-forward into it (applications recover the
  // earlier state from snapshots). With frontier-gated trimming the
  // window extends down to the stable checkpoint frontier (log_base()
  // applies the clamp), so a restored learner never fast-forwards.
  const InstanceId base = log_base();
  if (msg.from_instance < base) {
    env.Send(from,
             MakeMessage<TrimNotice>(cfg_.ring, base, decided_watermark_));
    return;
  }
  std::vector<LearnRep::Entry> entries;
  std::size_t bytes = 0;
  for (auto it = instances_.LowerBound(msg.from_instance);
       it != instances_.end() && entries.size() < msg.max_values &&
       bytes < 512 * 1024;
       ++it) {
    const InstanceState& st = it->value;
    if (!st.decided || !st.has_mark) continue;
    const paxos::AcceptorRecord* rec = core_.Get(it->id);
    if (rec == nullptr || !rec->accepted) continue;
    // Serve only when our accepted value provably equals the decision:
    // the vid matches the decided label exactly, or our mark is from a
    // LATER round — a post-decision Phase 1 quorum intersects the
    // deciding quorum, so any later-round proposal for this instance is
    // forced to carry the decided value under a fresh vid. Without the
    // later-round clause a decision can become collectively
    // unrecoverable: the nodes that accepted the deciding proposal get
    // their marks relabelled by a takeover re-proposal, no mark matches
    // the decided vid anywhere, and a learner missing the instance
    // starves forever. A stale accepted value from a round at or below
    // the decided round (minus the exact deciding vid) must still never
    // be served.
    const Round decided_round = static_cast<Round>(st.decided_vid >> 40);
    if (st.mark_vid != st.decided_vid && st.mark_round <= decided_round) continue;
    bytes += rec->accepted->WireSize();
    entries.push_back({it->id, st.decided_vid, *rec->accepted});
  }
  if (!entries.empty()) {
    env.Send(from, MakeMessage<LearnRep>(cfg_.ring, std::move(entries)));
  }
}

// --------------------------------------------------------- coordinator side

void RingNode::OnSubmit(Env& env, const Submit& msg) {
  // Followers drop (the proposer re-targets via heartbeats and
  // retransmits); a candidate buffers until Phase 1 completes.
  if (role_ == Role::kFollower) return;
  pending_bytes_ += msg.msg.WireSize();
  pending_.push_back(msg.msg);
  if (role_ != Role::kLeader) return;
  if (pending_bytes_ >= cfg_.batch_bytes) {
    TryProposeBatches(env);
  } else if (batch_timer_ == kNoTimer) {
    batch_timer_ = env.SetTimer(cfg_.batch_timeout, [this, &env] { OnBatchTimer(env); });
  }
}

void RingNode::OnBatchTimer(Env& env) {
  batch_timer_ = kNoTimer;
  if (role_ != Role::kLeader) return;
  // Timeout fired: propose a partial batch.
  if (!pending_.empty() && outstanding_.size() < cfg_.window) ProposeBatch(env);
  if (!pending_.empty()) {
    batch_timer_ = env.SetTimer(cfg_.batch_timeout, [this, &env] { OnBatchTimer(env); });
  }
}

void RingNode::TryProposeBatches(Env& env) {
  while (role_ == Role::kLeader && pending_bytes_ >= cfg_.batch_bytes &&
         outstanding_.size() < cfg_.window) {
    ProposeBatch(env);
  }
  if (!pending_.empty() && batch_timer_ == kNoTimer) {
    batch_timer_ = env.SetTimer(cfg_.batch_timeout, [this, &env] { OnBatchTimer(env); });
  }
}

// Proposes the oldest pending messages, up to batch_bytes, as one value.
void RingNode::ProposeBatch(Env& env) {
  std::vector<paxos::ClientMsg> batch;
  std::size_t bytes = 0;
  while (!pending_.empty() && bytes < cfg_.batch_bytes) {
    bytes += pending_.front().WireSize();
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  pending_bytes_ -= std::min(pending_bytes_, bytes);
  ProposeValue(env, Value::Batch(std::move(batch)));
}

std::vector<Decided> RingNode::TakePiggyback() {
  constexpr std::size_t kMaxPiggyback = 128;
  if (to_announce_.size() <= kMaxPiggyback) return std::move(to_announce_);
  std::vector<Decided> out(to_announce_.begin(),
                           to_announce_.begin() + kMaxPiggyback);
  to_announce_.erase(to_announce_.begin(), to_announce_.begin() + kMaxPiggyback);
  return out;
}

void RingNode::ProposeValue(Env& env, Value value) {
  const InstanceId instance = next_instance_;
  next_instance_ += value.LogicalInstances();
  const ValueId vid = NextVid();
  if (ctr_proposed_logical_) {
    ctr_proposed_logical_->Inc(value.LogicalInstances());
    if (value.is_skip()) ctr_proposed_skip_logical_->Inc(value.skip_count);
  }
  TraceProtocolEvent(env.now(), self_, cfg_.ring, instance, "coordinator",
                     value.is_skip() ? "propose_skip" : "propose",
                     value.is_skip() ? value.skip_count : value.msgs.size());

  Outstanding out;
  out.vid = vid;
  out.value = value;
  out.proposed_at = env.now();
  outstanding_.emplace(instance, std::move(out));

  SendP2A(env, MakeMessage<P2A>(cfg_.ring, round_, instance, vid, value, TakePiggyback(),
                                layouts_.at(round_)));

  // The coordinator is itself an acceptor: accept locally.
  const Round round = round_;
  core_.HandlePhase2(instance, round, std::move(value),
                     [this, &env, instance, round, vid](bool ok) {
                       if (!ok) return;
                       InstanceState& st = instances_[instance];
                       st.has_mark = true;
                       st.mark_round = round;
                       st.mark_vid = vid;
                       auto it = outstanding_.find(instance);
                       if (it != outstanding_.end() && it->second.vid == vid &&
                           role_ == Role::kLeader && round_ == round) {
                         it->second.self_durable = true;
                         CheckInstanceDecided(env, instance);
                       }
                     });
}

void RingNode::SendP2A(Env& env, MessagePtr p2a) {
  if (!cfg_.unicast_fanout) return env.Multicast(cfg_.data_channel, std::move(p2a));
  for (NodeId to : cfg_.fanout_targets) env.Send(to, p2a);
}

void RingNode::CheckInstanceDecided(Env& env, InstanceId instance) {
  auto it = outstanding_.find(instance);
  if (it == outstanding_.end()) return;
  const Outstanding& out = it->second;
  const auto* layout = LayoutFor(round_);
  // The solo fast path (no ring round-trip) is only sound when a
  // one-member layout is a majority, i.e. a single-node universe.
  // (Majority check disabled only by the test_unsafe_submajority_layout
  // bug fixture, config.h.)
  const bool ring_ok = layout != nullptr &&
                       (cfg_.test_unsafe_submajority_layout ||
                        layout->size() >= cfg_.UniverseMajority()) &&
                       (out.ring_voted || layout->size() == 1);
  if (out.self_durable && ring_ok) InstanceDecided(env, instance);
}

void RingNode::InstanceDecided(Env& env, InstanceId instance) {
  auto it = outstanding_.find(instance);
  if (it == outstanding_.end()) return;
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);

  decide_latency_.Record(env.now() - out.proposed_at);
  InstanceState& st = instances_[instance];
  st.decided = true;
  st.decided_vid = out.vid;
  AdvanceDecidedWatermark();
  ++decided_instances_;
  decided_msgs_ += out.value.msgs.size();
  if (out.value.is_skip()) skipped_logical_ += out.value.skip_count;
  if (ctr_decided_logical_) {
    ctr_decided_logical_->Inc(out.value.LogicalInstances());
    ctr_decided_msgs_->Inc(out.value.msgs.size());
  }
  TraceProtocolEvent(env.now(), self_, cfg_.ring, instance, "coordinator",
                     out.value.is_skip() ? "decide_skip" : "decide",
                     out.value.LogicalInstances());
  to_announce_.push_back({instance, out.vid});

  if (cfg_.ack_submits && !out.value.msgs.empty()) {
    // One cumulative ack per proposer present in the batch.
    std::map<NodeId, std::pair<GroupId, std::uint64_t>> acks;
    for (const auto& msg : out.value.msgs) {
      auto& e = acks[msg.proposer];
      e.first = msg.group;
      e.second = std::max(e.second, msg.seq);
    }
    for (const auto& [proposer, e] : acks) {
      env.Send(proposer, MakeMessage<SubmitAck>(cfg_.ring, e.first, e.second));
    }
  }
  TryProposeBatches(env);
  // No in-flight instance left to piggyback on: announce now rather than
  // waiting for the flush timer (keeps closed-loop clients from
  // synchronizing on the flush period).
  if (outstanding_.empty()) FlushDecisions(env);
  // Hot membership swap (docs/RECONFIG.md): a decided ReconfigPlan for
  // this ring re-runs Phase 1 with the swapped layout. After the
  // decision hook so the pipeline state the takeover rebuilds is final.
  MaybeApplySwap(env, out.value);
}

// A kSwap ReconfigPlan ordered through this very ring: the decision
// instance is the serialization point every member observes, and the
// epoch/layout machinery (StartTakeover at a fresh self-owned round,
// layout propagated via P1A/P2A) makes the new membership live without
// stopping the stream. Idempotent under re-decide: once swap_out has
// left the layout the plan no longer matches. Only the coordinator acts
// — followers learn the layout from Phase 1/2, exactly as in fail-over.
void RingNode::MaybeApplySwap(Env& env, const paxos::Value& value) {
  if (role_ != Role::kLeader || value.is_skip()) return;
  for (const auto& msg : value.msgs) {
    if (!reconfig::ReconfigPlan::IsPlanPayload(msg.payload)) continue;
    auto plan = reconfig::ReconfigPlan::Decode(msg.payload);
    if (!plan || plan->kind != reconfig::ReconfigPlan::Kind::kSwap) continue;
    if (plan->ring != cfg_.ring) continue;
    if (plan->swap_out == self_) continue;  // cannot swap out the coordinator
    if (!cfg_.InUniverse(plan->swap_in)) continue;
    const std::vector<NodeId>* cur = LayoutFor(round_);
    if (cur == nullptr) continue;
    if (std::find(cur->begin(), cur->end(), plan->swap_in) != cur->end()) {
      continue;
    }
    auto pos = std::find(cur->begin(), cur->end(), plan->swap_out);
    if (pos == cur->end()) continue;  // already applied, or not a member
    std::vector<NodeId> next = *cur;
    next[static_cast<std::size_t>(pos - cur->begin())] = plan->swap_in;
    ++swaps_applied_;
    if (ctr_swaps_ == nullptr) {
      ctr_swaps_ = &env.metrics().counter("ring.swaps");
    }
    ctr_swaps_->Inc();
    TraceProtocolEvent(env.now(), self_, cfg_.ring, kNoInstance, "coordinator",
                       "swap", plan->plan_id);
    StartTakeover(env, std::move(next));
    return;  // one swap per decision; the takeover resets the pipeline
  }
}

void RingNode::FlushDecisions(Env& env) {
  if (!to_announce_.empty()) {
    env.Multicast(cfg_.data_channel,
                  MakeMessage<DecisionMsg>(cfg_.ring, std::move(to_announce_)));
    to_announce_.clear();
  }
}

void RingNode::OnDeltaTimer(Env& env) {
  delta_timer_ = kNoTimer;
  if (role_ != Role::kLeader) return;
  // Algorithm 1 lines 13-20, with real elapsed time so that a paused and
  // resumed coordinator emits one catch-up skip covering the outage. The
  // clock is read once: time spent proposing below (a send syscall in
  // the real runtime) must count towards the next interval, not vanish
  // from the lambda*t schedule.
  const TimePoint now = env.now();
  const Duration elapsed = now - last_sample_;
  const double secs = ToSeconds(elapsed);
  if (secs > 0) {
    const double k = static_cast<double>(next_instance_);
    last_mu_ = (k - prev_k_) / secs;
    const double target = prev_k_ + cfg_.lambda_per_sec * secs;
    if (k < std::floor(target)) {
      auto count = static_cast<std::uint64_t>(std::floor(target) - k);
      if (cfg_.batch_skips) {
        ++skip_proposals_;
        if (ctr_skip_proposals_) ctr_skip_proposals_->Inc();
        ProposeValue(env, Value::Skip(count));
      } else {
        // Ablation: Algorithm 1 executed literally — one consensus
        // instance per skipped instance.
        count = std::min<std::uint64_t>(count, cfg_.unbatched_skip_cap);
        for (std::uint64_t i = 0; i < count; ++i) {
          ++skip_proposals_;
          if (ctr_skip_proposals_) ctr_skip_proposals_->Inc();
          ProposeValue(env, Value::Skip(1));
        }
      }
    }
    // Carry the fractional quota: every ring then tracks the identical
    // lambda*t logical schedule (fractions never discarded), so equally
    // loaded rings stay in lockstep at the merge learners. With
    // skip_resync the baseline is the schedule itself, so a burst above
    // lambda is repaid later instead of desynchronising the ring.
    prev_k_ = cfg_.skip_resync
                  ? target
                  : std::max(static_cast<double>(next_instance_), target);
    last_sample_ = now;
  }
  FlushDecisions(env);
  delta_timer_ = env.SetTimer(DeltaPeriod(), [this, &env] { OnDeltaTimer(env); });
}

Duration RingNode::DeltaPeriod() const {
  return cfg_.lambda_per_sec > 0 ? cfg_.delta : cfg_.decision_flush;
}

void RingNode::OnRetryTimer(Env& env) {
  retry_timer_ = kNoTimer;
  if (role_ != Role::kLeader) return;
  for (auto& [instance, out] : outstanding_) {
    if (env.now() - out.proposed_at >= cfg_.p2_retry) {
      ++out.retries;
      if (ctr_retransmits_) ctr_retransmits_->Inc();
      TraceProtocolEvent(env.now(), self_, cfg_.ring, instance, "coordinator",
                         "p2_retransmit", static_cast<std::uint64_t>(out.retries));
      out.proposed_at = env.now();
      SendP2A(env, MakeMessage<P2A>(cfg_.ring, round_, instance, out.vid, out.value,
                                    std::vector<Decided>{}, layouts_.at(round_)));
    }
  }
  FlushDecisions(env);
  retry_timer_ = env.SetTimer(cfg_.p2_retry, [this, &env] { OnRetryTimer(env); });
}

void RingNode::OnLeaderHeartbeatTimer(Env& env) {
  heartbeat_timer_ = kNoTimer;
  if (role_ != Role::kLeader) return;
  env.Multicast(cfg_.control_channel, MakeMessage<Heartbeat>(cfg_.ring, round_, self_));
  FlushDecisions(env);

  // Ring-member failure detection: a member that stopped acking is
  // replaced by a spare (Section IV-C).
  const auto* layout = LayoutFor(round_);
  if (layout != nullptr) {
    bool reconfigure = false;
    for (NodeId member : *layout) {
      if (member == self_) continue;
      auto it = member_last_ack_.find(member);
      if (it != member_last_ack_.end() &&
          env.now() - it->second > cfg_.suspect_after) {
        reconfigure = true;
      }
    }
    if (reconfigure) {
      StartTakeover(env, CurrentLayoutAlive(env.now()));
      return;
    }
  }
  heartbeat_timer_ = env.SetTimer(cfg_.heartbeat_interval,
                                  [this, &env] { OnLeaderHeartbeatTimer(env); });
}

std::vector<NodeId> RingNode::CurrentLayoutAlive(TimePoint now) const {
  // New layout: self first, then responsive current members, then spares,
  // up to the configured ring size.
  const std::size_t target =
      std::max(cfg_.ring_members.size(), cfg_.UniverseMajority());
  std::vector<NodeId> layout{self_};
  auto alive = [&](NodeId n) {
    auto it = member_last_ack_.find(n);
    return it == member_last_ack_.end() || now - it->second <= cfg_.suspect_after;
  };
  const auto* current = LayoutFor(round_);
  if (current != nullptr) {
    for (NodeId n : *current) {
      if (layout.size() >= target) break;
      if (n != self_ && alive(n)) layout.push_back(n);
    }
  }
  for (NodeId n : cfg_.Universe()) {
    if (layout.size() >= target) break;
    if (std::find(layout.begin(), layout.end(), n) == layout.end() && alive(n)) {
      layout.push_back(n);
    }
  }
  // Safety over liveness: the layout must contain a majority of the
  // universe or decisions stop reaching a quorum that intersects Phase 1
  // (config.h invariant). When too many members look dead, pad with
  // suspected ones — a genuinely dead layout member stalls this round
  // until the next reconfiguration, whereas a sub-majority layout once
  // let a leader decide instances all by itself and a later coordinator
  // chose different values for them (found by mrp_fuzz, seed 2 under
  // --budget anything). The test_unsafe_submajority_layout fixture
  // re-opens exactly that hole so the model checker can rediscover it
  // (docs/MODEL_CHECKING.md).
  if (!cfg_.test_unsafe_submajority_layout) {
    for (NodeId n : cfg_.Universe()) {
      if (layout.size() >= cfg_.UniverseMajority()) break;
      if (std::find(layout.begin(), layout.end(), n) == layout.end()) {
        layout.push_back(n);
      }
    }
  }
  return layout;
}

void RingNode::BecomeFollower(Env& env, Round observed_round) {
  FlushDecisions(env);
  role_ = Role::kFollower;
  round_ = std::max(round_, observed_round);
  if (batch_timer_ != kNoTimer) env.CancelTimer(batch_timer_);
  if (delta_timer_ != kNoTimer) env.CancelTimer(delta_timer_);
  if (retry_timer_ != kNoTimer) env.CancelTimer(retry_timer_);
  if (heartbeat_timer_ != kNoTimer) env.CancelTimer(heartbeat_timer_);
  if (phase1_timer_ != kNoTimer) env.CancelTimer(phase1_timer_);
  batch_timer_ = delta_timer_ = retry_timer_ = heartbeat_timer_ = phase1_timer_ =
      kNoTimer;
  // The new coordinator re-runs consensus for outstanding instances and
  // proposers resubmit unacknowledged messages.
  outstanding_.clear();
  pending_.clear();
  pending_bytes_ = 0;
  last_leader_sign_ = env.now();
  if (follower_timer_ == kNoTimer && cfg_.InUniverse(self_)) {
    follower_timer_ = env.SetTimer(cfg_.heartbeat_interval,
                                   [this, &env] { OnFollowerCheckTimer(env); });
  }
}

// ----------------------------------------------------------------- failover

void RingNode::OnFollowerCheckTimer(Env& env) {
  follower_timer_ = kNoTimer;
  if (role_ == Role::kFollower && cfg_.InUniverse(self_)) {
    // Stagger takeover patience by the node's distance from the current
    // owner in round-ownership order, so the next-in-line reacts first.
    const auto universe = cfg_.Universe();
    const NodeId owner = cfg_.RoundOwner(round_);
    const auto idx_of = [&](NodeId n) {
      return static_cast<std::size_t>(
          std::find(universe.begin(), universe.end(), n) - universe.begin());
    };
    const std::size_t distance =
        (idx_of(self_) + universe.size() - idx_of(owner)) % universe.size();
    const Duration patience =
        cfg_.suspect_after * static_cast<std::int64_t>(distance) +
        cfg_.suspect_after;
    if (env.now() - last_leader_sign_ > patience) {
      StartTakeover(env, CurrentLayoutAlive(env.now()));
      return;
    }
    follower_timer_ = env.SetTimer(cfg_.heartbeat_interval,
                                   [this, &env] { OnFollowerCheckTimer(env); });
  }
}

void RingNode::StartTakeover(Env& env, std::vector<NodeId> layout) {
  const Round r =
      (round_ == 0 && cfg_.RoundOwner(0) == self_ && role_ == Role::kFollower)
          ? 0
          : cfg_.NextRoundOwnedBy(self_, round_);
  if (role_ == Role::kLeader) BecomeFollower(env, round_);
  if (follower_timer_ != kNoTimer) {
    env.CancelTimer(follower_timer_);
    follower_timer_ = kNoTimer;
  }
  role_ = Role::kCandidate;
  if (ctr_takeovers_) ctr_takeovers_->Inc();
  TraceProtocolEvent(env.now(), self_, cfg_.ring, kNoInstance, "coordinator",
                     "takeover", r);
  candidate_round_ = r;
  round_ = std::max(round_, r);
  candidate_layout_ = std::move(layout);
  layouts_[r] = candidate_layout_;
  promises_.clear();
  phase1_values_.clear();
  phase1_from_ = decided_watermark_;

  // Self-promise.
  core_.HandlePhase1Range(phase1_from_, r,
                          [this](InstanceId i, Round vrnd, const Value& v) {
                            CollectPromiseEntry(i, vrnd, v);
                          });
  promises_.insert(self_);

  for (NodeId n : cfg_.Universe()) {
    if (n == self_) continue;
    env.Send(n, MakeMessage<P1A>(cfg_.ring, r, phase1_from_, candidate_layout_));
  }
  if (promises_.size() >= cfg_.UniverseMajority()) {
    FinishPhase1(env);
    return;
  }
  if (phase1_timer_ != kNoTimer) env.CancelTimer(phase1_timer_);
  phase1_timer_ = env.SetTimer(cfg_.phase1_timeout, [this, &env] {
    phase1_timer_ = kNoTimer;
    if (role_ == Role::kCandidate) StartTakeover(env, CurrentLayoutAlive(env.now()));
  });
}

void RingNode::CollectPromiseEntry(InstanceId i, Round vrnd, const Value& v) {
  auto [it, inserted] = phase1_values_.try_emplace(i, vrnd, v);
  if (!inserted && vrnd >= it->second.first) it->second = {vrnd, v};
}

void RingNode::CollectPromise(NodeId from, const std::vector<P1B::Entry>& entries) {
  promises_.insert(from);
  for (const auto& e : entries) CollectPromiseEntry(e.instance, e.vrnd, e.value);
}

void RingNode::OnP1A(Env& env, NodeId from, const P1A& msg) {
  if (msg.round > round_) {
    if (role_ != Role::kFollower) BecomeFollower(env, msg.round);
    round_ = msg.round;
  }
  layouts_[msg.round] = msg.layout;
  last_leader_sign_ = env.now();

  std::vector<P1B::Entry> entries;
  const bool promised = core_.HandlePhase1Range(
      msg.from_instance, msg.round,
      [&entries](InstanceId i, Round vrnd, const Value& v) {
        entries.push_back({i, vrnd, v});
      });
  if (!promised) return;
  env.Send(from, MakeMessage<P1B>(cfg_.ring, msg.round, std::move(entries)));
}

void RingNode::OnP1B(Env& env, NodeId from, const P1B& msg) {
  if (role_ != Role::kCandidate || msg.round != candidate_round_) return;
  CollectPromise(from, msg.accepted);
  if (promises_.size() >= cfg_.UniverseMajority()) FinishPhase1(env);
}

void RingNode::FinishPhase1(Env& env) {
  if (phase1_timer_ != kNoTimer) {
    env.CancelTimer(phase1_timer_);
    phase1_timer_ = kNoTimer;
  }
  role_ = Role::kLeader;
  round_ = candidate_round_;
  layouts_[round_] = candidate_layout_;
  member_last_ack_.clear();
  for (NodeId n : candidate_layout_) {
    if (n != self_) member_last_ack_[n] = env.now();
  }

  // Re-propose every value reported by the promise quorum; fill holes
  // with skips (they stand for never-proposed instances; a decided value
  // can never hide in a hole because every decision reached a majority-
  // intersecting quorum).
  next_instance_ = phase1_from_;
  auto values = std::move(phase1_values_);
  phase1_values_.clear();
  for (auto& [instance, entry] : values) {
    if (instance < next_instance_) continue;  // covered by a prior span
    if (instance > next_instance_) {
      ProposeValue(env, Value::Skip(instance - next_instance_));
    }
    ProposeValue(env, std::move(entry.second));
  }

  prev_k_ = static_cast<double>(next_instance_);
  last_sample_ = env.now();

  env.Multicast(cfg_.control_channel, MakeMessage<Heartbeat>(cfg_.ring, round_, self_));
  heartbeat_timer_ = env.SetTimer(cfg_.heartbeat_interval,
                                  [this, &env] { OnLeaderHeartbeatTimer(env); });
  retry_timer_ = env.SetTimer(cfg_.p2_retry, [this, &env] { OnRetryTimer(env); });
  // The delta timer doubles as the idle decision-flush timer when skips
  // are disabled (lambda == 0 makes the skip check a no-op).
  delta_timer_ = env.SetTimer(DeltaPeriod(), [this, &env] { OnDeltaTimer(env); });
  TryProposeBatches(env);
}

}  // namespace mrp::ringpaxos
