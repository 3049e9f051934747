#include "ringpaxos/learner.h"

#include <algorithm>
#include <string>

#include "common/trace.h"

namespace mrp::ringpaxos {

namespace {
// vids encode their round in the high bits (RingNode::NextVid); the
// round decides whether a proposal's value is forced to equal an
// earlier decision's value.
Round VidRound(ValueId vid) { return static_cast<Round>(vid >> 40); }
}  // namespace

void LearnerCore::EnsureCounters(Env& env) {
  if (counters_resolved_) return;
  counters_resolved_ = true;
  MetricsRegistry& reg = env.metrics();
  const std::string prefix = "learner.r" + std::to_string(opts_.ring.ring) + ".";
  ctr_cache_hits_ = &reg.counter(prefix + "cache_hits");
  ctr_cache_misses_ = &reg.counter(prefix + "cache_misses");
  ctr_recovery_rounds_ = &reg.counter(prefix + "recovery_rounds");
  ctr_recovery_reqs_ = &reg.counter(prefix + "recovery_reqs");
  ctr_fast_forwarded_ = &reg.counter(prefix + "fast_forwarded");
  gauge_cache_entries_ = &reg.gauge(prefix + "cache.entries");
  gauge_cache_bytes_ = &reg.gauge(prefix + "cache.bytes");
}

void LearnerCore::SyncCacheGauges() {
  if (gauge_cache_entries_ == nullptr) return;
  gauge_cache_entries_->Set(static_cast<std::int64_t>(cache_.size()));
  gauge_cache_bytes_->Set(static_cast<std::int64_t>(cache_bytes_));
}

bool LearnerCore::OnRingMessage(Env& env, const MessagePtr& m) {
  const RingMessage* rm = AsRingMessage(*m);
  if (rm == nullptr || rm->ring != opts_.ring.ring) return false;
  EnsureCounters(env);

  switch (m->tag()) {
    case P2A::kTag: {
      const auto* p2a = static_cast<const P2A*>(m.get());
      if (!p2a->layout.empty()) coordinator_hint_ = p2a->layout[0];
      if (p2a->instance >= window_.next()) {
        if (Cell* cell = window_.Get(p2a->instance)) {
          // Decided with the value lost earlier. A retransmission carries
          // it again (same vid); after a fail-over a RE-proposal carries
          // the same VALUE under a new vid — safe to use when its round is
          // at least the decision's round, because that proposer's Phase 1
          // intersected the deciding quorum and was forced to the decided
          // value. A LOWER-round proposal may be a stale loser: ignore.
          if (!cell->value.has_value() &&
              (cell->vid == p2a->vid || p2a->round >= VidRound(cell->vid))) {
            cell->value = p2a->value;
            buffered_msgs_ += MsgsIn(p2a->value);
          }
        } else {
          auto [it, inserted] = cache_.try_emplace(p2a->instance);
          if (inserted || p2a->round >= it->second.round) {
            if (!inserted) {
              buffered_msgs_ -= MsgsIn(it->second.value);
              cache_bytes_ -= BytesIn(it->second.value);
            }
            it->second = Cached{p2a->round, p2a->vid, p2a->value};
            buffered_msgs_ += MsgsIn(p2a->value);
            cache_bytes_ += BytesIn(p2a->value);
          }
        }
      }
      for (const auto& d : p2a->decided) PlaceDecision(d.instance, d.vid);
      TrimCache();
      SyncCacheGauges();
      return true;
    }
    case DecisionMsg::kTag: {
      const auto* dec = static_cast<const DecisionMsg*>(m.get());
      for (const auto& d : dec->decided) PlaceDecision(d.instance, d.vid);
      TrimCache();
      SyncCacheGauges();
      return true;
    }
    case LearnRep::kTag: {
      const auto* rep = static_cast<const LearnRep*>(m.get());
      for (const auto& e : rep->entries) {
        if (e.instance < window_.next()) continue;
        if (Cell* cell = window_.Get(e.instance)) {
          // Decision already placed but the value was lost: fill it in.
          // LearnRep entries are decision records (the acceptor only
          // serves values matching ITS decided vid), and two decisions of
          // one instance always carry the same value even when fail-overs
          // relabelled the vid — so no vid comparison here.
          if (!cell->value.has_value()) {
            cell->value = e.value;
            buffered_msgs_ += MsgsIn(e.value);
          }
          continue;
        }
        buffered_msgs_ += MsgsIn(e.value);
        window_.Insert(e.instance, Cell{e.vid, e.value});
        auto cit = cache_.find(e.instance);
        if (cit != cache_.end()) {
          buffered_msgs_ -= MsgsIn(cit->second.value);
          cache_bytes_ -= BytesIn(cit->second.value);
          cache_.erase(cit);
        }
      }
      SyncCacheGauges();
      return true;
    }
    case Heartbeat::kTag: {
      const auto* hb = static_cast<const Heartbeat*>(m.get());
      coordinator_hint_ = hb->coordinator;
      return true;
    }
    case TrimNotice::kTag: {
      const auto* trim = static_cast<const TrimNotice*>(m.get());
      // History below low_watermark is unrecoverable from the ring:
      // fast-forward into the retained window (a late joiner; applications
      // restore earlier state from snapshots). Target the window midpoint
      // so half the retention remains as headroom against the trim point,
      // which keeps moving while recovery requests are in flight. Never
      // move backwards.
      const InstanceId target =
          trim->low_watermark + (trim->high_watermark - trim->low_watermark) / 2;
      if (target > window_.next()) {
        const InstanceId skipped = target - window_.next();
        for (const Cell& dropped : window_.Skip(skipped)) {
          if (dropped.value.has_value()) {
            buffered_msgs_ -= std::min(buffered_msgs_, MsgsIn(*dropped.value));
          }
        }
        fast_forwarded_ += skipped;
        if (ctr_fast_forwarded_) ctr_fast_forwarded_->Inc(skipped);
        TraceProtocolEvent(env.now(), env.self(), opts_.ring.ring, target,
                           "learner", "fast_forward", skipped);
        TrimCache();
      }
      return true;
    }
    default:
      return false;
  }
}

void LearnerCore::PlaceDecision(InstanceId instance, ValueId vid) {
  if (instance < window_.next() || window_.Contains(instance)) return;
  Cell cell;
  cell.vid = vid;
  auto it = cache_.find(instance);
  if (it != cache_.end()) {
    cache_bytes_ -= BytesIn(it->second.value);
    if (it->second.vid == vid || it->second.round >= VidRound(vid)) {
      // Exact proposal, or a later-round re-proposal whose value Phase 1
      // forced to equal the decision's.
      cell.value = std::move(it->second.value);
      if (ctr_cache_hits_) ctr_cache_hits_->Inc();
    } else {
      // A stale proposal from a dead round was cached; the decided value
      // will arrive via recovery.
      buffered_msgs_ -= MsgsIn(it->second.value);
      if (ctr_cache_misses_) ctr_cache_misses_->Inc();
    }
    cache_.erase(it);
  } else {
    // Decision announced before (or without) its value: must wait for a
    // retransmission or recover from an acceptor.
    if (ctr_cache_misses_) ctr_cache_misses_->Inc();
  }
  window_.Insert(instance, std::move(cell));
}

void LearnerCore::TrimCache() {
  // Drop cached proposals for instances the window has already passed.
  while (!cache_.empty() && cache_.begin()->first < window_.next()) {
    buffered_msgs_ -= MsgsIn(cache_.begin()->second.value);
    cache_bytes_ -= BytesIn(cache_.begin()->second.value);
    cache_.erase(cache_.begin());
  }
}

void LearnerCore::Tick(Env& env) {
  EnsureCounters(env);
  TrimCache();
  SyncCacheGauges();
  const bool stuck = window_.next() == last_next_ &&
                     (window_.buffered() > 0 || !cache_.empty());
  last_next_ = window_.next();
  if (!stuck) {
    stuck_rounds_ = 0;
    return;
  }
  ++stuck_rounds_;
  if (ctr_recovery_rounds_) ctr_recovery_rounds_->Inc();
  TraceProtocolEvent(env.now(), env.self(), opts_.ring.ring, window_.next(),
                     "learner", "recovery_round", window_.buffered());
  // Estimate how far behind the live edge we are (highest instance seen
  // in the undecided cache) and request several consecutive chunks in
  // parallel — a deeply lagging or late-joining learner must recover
  // faster than the live rate or it never catches up.
  const InstanceId live = cache_.empty() ? window_.next() : cache_.rbegin()->first;
  const std::uint64_t backlog = live > window_.next() ? live - window_.next() : 0;
  const int chunks =
      1 + static_cast<int>(std::min<std::uint64_t>(
              3, backlog / std::max<std::uint32_t>(1, opts_.recovery_batch)));
  // Rotate over the WHOLE universe (members and spares), interleaved
  // with the current coordinator: after reconfigurations the record for
  // an old instance may live only on a node that is no longer in the
  // ring (or not the preferential acceptor), and a fixed target set can
  // dead-end the learner forever.
  const auto universe = opts_.ring.Universe();
  if (stuck_rounds_ > kStuckEscalation) {
    // Head-of-line deadlock breaker: the same instance has blocked many
    // consecutive rounds, so sweep the blocking chunk to EVERY server
    // (whole universe plus the coordinator) at once. The flip rotation
    // below cannot be trusted to get there — with an even chunk count
    // it advances by a fixed stride per round, so the blocking instance
    // is asked of the SAME node every round; if that one node missed
    // the decision (an acceptor never recovers decisions it lost),
    // recovery dead-ends forever while another server holds the record.
    // The sweep is tiny (one request per server, replies bounded by the
    // batch) and only runs while genuinely wedged.
    auto ask = [&](NodeId target) {
      if (ctr_recovery_reqs_) ctr_recovery_reqs_->Inc();
      env.Send(target, MakeMessage<LearnReq>(opts_.ring.ring, window_.next(),
                                             opts_.recovery_batch));
    };
    for (NodeId n : universe) ask(n);
    if (coordinator_hint_ != kNoNode &&
        std::find(universe.begin(), universe.end(), coordinator_hint_) ==
            universe.end()) {
      ask(coordinator_hint_);
    }
  }
  for (int i = 0; i < chunks; ++i) {
    NodeId target;
    const int flip = ++recovery_flip_;
    if (flip % 2 == 0 && coordinator_hint_ != kNoNode) {
      target = coordinator_hint_;
    } else {
      target = universe[(env.self() + static_cast<NodeId>(flip)) % universe.size()];
    }
    if (ctr_recovery_reqs_) ctr_recovery_reqs_->Inc();
    env.Send(target,
             MakeMessage<LearnReq>(
                 opts_.ring.ring,
                 window_.next() + static_cast<InstanceId>(i) * opts_.recovery_batch,
                 opts_.recovery_batch));
  }
}

// ---------------------------------------------------------- RingLearner

void RingLearner::OnStart(Env& env) {
  MetricsRegistry& reg = env.metrics();
  ctr_delivered_ = &reg.counter("learner.delivered_msgs");
  ctr_skipped_ = &reg.counter("learner.skipped_logical");
  hist_latency_ns_ = &reg.histogram("learner.delivery_latency_ns");
  ArmTick(env);
}

void RingLearner::ArmTick(Env& env) {
  env.SetTimer(opts_.learner.recovery_interval, [this, &env] {
    core_.Tick(env);
    Drain(env);
    ArmTick(env);
  });
}

void RingLearner::OnMessage(Env& env, NodeId /*from*/, const MessagePtr& m) {
  if (core_.OnRingMessage(env, m)) Drain(env);
}

void RingLearner::Drain(Env& env) {
  while (auto ready = core_.Pop()) {
    if (opts_.on_decide) {
      opts_.on_decide(core_.ring(), ready->instance, ready->value);
    }
    if (ready->value.is_skip()) {
      skipped_logical_ += ready->value.skip_count;
      if (ctr_skipped_) ctr_skipped_->Inc(ready->value.skip_count);
      continue;
    }
    for (const auto& msg : ready->value.msgs) {
      latency_.Record(env.now() - msg.sent_at);
      if (hist_latency_ns_) {
        hist_latency_ns_->Record(env.now() - msg.sent_at);
      }
      if (ctr_delivered_) ctr_delivered_->Inc();
      delivered_.Add(1, msg.payload_size);
      if (opts_.on_deliver) opts_.on_deliver(msg);
      if (opts_.send_delivery_acks) {
        env.Send(msg.proposer,
                 MakeMessage<DeliveryAck>(core_.ring(), msg.group, msg.seq));
      }
    }
  }
}

}  // namespace mrp::ringpaxos
