#include "multiring/merge_learner.h"

#include <algorithm>
#include <string>

#include "common/trace.h"

namespace mrp::multiring {

using ringpaxos::DeliveryAck;

MergeLearner::MergeLearner(Options opts) : opts_(std::move(opts)) {
  std::vector<std::unique_ptr<paxos::GroupSource>> sources;
  for (auto& g : opts_.groups) {
    sources.push_back(std::make_unique<ringpaxos::LearnerCore>(g));
  }
  for (auto& s : opts_.sources) sources.push_back(std::move(s));
  opts_.sources.clear();
  // Deterministic merge order: ascending group id (Section IV-B, the
  // groups' unique identifiers are totally ordered).
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a->group() < b->group(); });
  for (auto& s : sources) {
    auto stats = std::make_unique<GroupStats>();
    stats->group = s->group();
    stats_.push_back(std::move(stats));
    // Per-group merge quota M_g (rate-proportional merge); the uniform
    // `m` remains the default for unlisted groups.
    auto q = opts_.m_per_group.find(s->group());
    quota_.push_back(q != opts_.m_per_group.end()
                         ? std::max<std::uint32_t>(1, q->second)
                         : opts_.m);
    groups_.push_back(std::make_unique<GroupState>(std::move(s)));
  }
}

void MergeLearner::OnStart(Env& env) {
  MetricsRegistry& reg = env.metrics();
  metrics_ = &reg;
  instruments_.resize(groups_.size());
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    const std::string prefix =
        "merge.g" + std::to_string(stats_[i]->group) + ".";
    instruments_[i].consumed = &reg.counter(prefix + "consumed");
    instruments_[i].turns = &reg.counter(prefix + "turns");
    instruments_[i].skip_consumed = &reg.counter(prefix + "skip_consumed");
    instruments_[i].delivered = &reg.counter(prefix + "delivered");
    instruments_[i].discarded = &reg.counter(prefix + "discarded");
  }
  ctr_stalls_ = &reg.counter("merge.stalls");
  ctr_halts_ = &reg.counter("merge.halts");
  gauge_partial_consumed_ = &reg.gauge("merge.partial_consumed");
  gauge_current_group_ = &reg.gauge("merge.current_group");
  // Geo features register their instruments only when enabled, so a
  // default deployment's metrics snapshot stays byte-identical to seed.
  if (!opts_.m_per_group.empty()) {
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      reg.gauge("merge.g" + std::to_string(stats_[i]->group) + ".quota")
          .Set(static_cast<std::int64_t>(quota_[i]));
    }
  }
  if (opts_.latency_compensation.count() > 0) {
    ctr_comp_held_ = &reg.counter("merge.comp_held");
    gauge_comp_queue_ = &reg.gauge("merge.comp_queue");
  }
  SyncMergeGauges();
  for (auto& g : groups_) g->source->OnStart(env);
  ArmTick(env);
}

void MergeLearner::SyncMergeGauges() {
  if (gauge_partial_consumed_ == nullptr) return;
  gauge_partial_consumed_->Set(static_cast<std::int64_t>(consumed_));
  if (!groups_.empty()) {
    gauge_current_group_->Set(
        static_cast<std::int64_t>(stats_[current_]->group));
  }
}

void MergeLearner::ArmTick(Env& env) {
  env.SetTimer(opts_.tick_interval, [this, &env] {
    // A halted learner is done: its sources neither tick nor buffer.
    if (halted_) return;
    for (auto& g : groups_) g->source->Tick(env);
    PumpMerge(env);
    ArmTick(env);
  });
}

void MergeLearner::OnMessage(Env& env, NodeId from, const MessagePtr& m) {
  if (halted_) return;  // ring traffic would only grow the buffers
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i]->source->OnMessage(env, from, m)) {
      stats_[i]->received.Add(1, m->WireSize());
      PumpMerge(env);
      return;  // sources consume disjoint message streams
    }
  }
}

std::size_t MergeLearner::buffered_msgs() const {
  std::size_t total = 0;
  for (const auto& g : groups_) total += g->source->buffered_msgs();
  return total;
}

// Registry discard counter attributed to the *discarded message's*
// group: the merge position with that group id if it is one, else a
// lazily created merge.g<id>.discarded counter (the group may not be a
// merge position of this learner at all — the usual case for
// subscribe_only filtering on shared rings, Section IV-D).
Counter* MergeLearner::DiscardCounterFor(GroupId group) {
  if (metrics_ == nullptr) return nullptr;
  for (std::size_t i = 0; i < instruments_.size(); ++i) {
    if (stats_[i]->group == group) return instruments_[i].discarded;
  }
  auto it = extra_discard_.find(group);
  if (it != extra_discard_.end()) return it->second;
  Counter* c =
      &metrics_->counter("merge.g" + std::to_string(group) + ".discarded");
  extra_discard_.emplace(group, c);
  return c;
}

void MergeLearner::Deliver(Env& env, std::size_t idx, const paxos::Value& value) {
  GroupStats& st = *stats_[idx];
  const auto& only = groups_[idx]->source->subscribe_only();
  for (const auto& msg : value.msgs) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), msg.group) == only.end()) {
      ++st.discarded;
      if (Counter* c = DiscardCounterFor(msg.group)) c->Inc();
      continue;
    }
    if (opts_.latency_compensation.count() <= 0) {
      DeliverMsg(env, idx, msg);
      continue;
    }
    // Latency compensation: hold until sent_at + compensation, with a
    // monotone clamp so the merge order survives the hold. Messages
    // whose natural latency already exceeds the compensation target
    // pass through undelayed.
    TimePoint release = msg.sent_at + opts_.latency_compensation;
    if (release < comp_last_release_) release = comp_last_release_;
    if (release < env.now()) release = env.now();
    comp_last_release_ = release;
    if (release <= env.now() && comp_queue_.empty()) {
      DeliverMsg(env, idx, msg);
      continue;
    }
    comp_queue_.push_back(HeldMsg{release, idx, msg});
    if (ctr_comp_held_) ctr_comp_held_->Inc();
    if (gauge_comp_queue_) {
      gauge_comp_queue_->Set(static_cast<std::int64_t>(comp_queue_.size()));
    }
    if (!comp_timer_armed_) {
      comp_timer_armed_ = true;
      env.SetTimer(comp_queue_.front().release - env.now(),
                   [this, &env] { PumpCompensation(env); });
    }
  }
}

void MergeLearner::PumpCompensation(Env& env) {
  comp_timer_armed_ = false;
  while (!comp_queue_.empty() && comp_queue_.front().release <= env.now()) {
    HeldMsg held = std::move(comp_queue_.front());
    comp_queue_.pop_front();
    DeliverMsg(env, held.idx, held.msg);
  }
  if (gauge_comp_queue_) {
    gauge_comp_queue_->Set(static_cast<std::int64_t>(comp_queue_.size()));
  }
  if (!comp_queue_.empty()) {
    comp_timer_armed_ = true;
    env.SetTimer(comp_queue_.front().release - env.now(),
                 [this, &env] { PumpCompensation(env); });
  }
}

void MergeLearner::DeliverMsg(Env& env, std::size_t idx,
                              const paxos::ClientMsg& msg) {
  GroupStats& st = *stats_[idx];
  GroupInstruments* ins =
      idx < instruments_.size() ? &instruments_[idx] : nullptr;
  st.latency.Record(env.now() - msg.sent_at);
  st.delivered.Add(1, msg.payload_size);
  if (ins) ins->delivered->Inc();
  ++total_delivered_;
  if (opts_.on_deliver) opts_.on_deliver(st.group, msg);
  if (opts_.send_delivery_acks) {
    env.Send(msg.proposer,
             MakeMessage<DeliveryAck>(groups_[idx]->source->ack_ring(),
                                      msg.group, msg.seq));
  }
}

void MergeLearner::QueueSubscribe(std::unique_ptr<paxos::GroupSource> source,
                                  std::uint32_t quota) {
  pending_subscribes_.emplace_back(std::move(source), quota);
}

void MergeLearner::QueueUnsubscribe(GroupId group) {
  pending_unsubscribes_.push_back(group);
}

std::vector<GroupId> MergeLearner::SubscribedGroups() const {
  std::vector<GroupId> out;
  out.reserve(groups_.size());
  for (const auto& st : stats_) out.push_back(st->group);
  return out;
}

// Runs only at a turn boundary (current_ == 0, consumed_ == 0), where
// removing or inserting merge positions cannot tear an in-progress
// turn: every remaining group keeps its relative merge order, which is
// what the ReconfigOracle's merge-order check relies on.
void MergeLearner::ApplySubscriptionChanges(Env& env) {
  if (ctr_subscription_changes_ == nullptr && metrics_ != nullptr) {
    ctr_subscription_changes_ = &metrics_->counter("merge.subscription_changes");
  }
  for (GroupId g : pending_unsubscribes_) {
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      if (stats_[i]->group != g) continue;
      groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(i));
      stats_.erase(stats_.begin() + static_cast<std::ptrdiff_t>(i));
      quota_.erase(quota_.begin() + static_cast<std::ptrdiff_t>(i));
      if (i < instruments_.size()) {
        instruments_.erase(instruments_.begin() +
                           static_cast<std::ptrdiff_t>(i));
      }
      ++subscription_changes_;
      if (ctr_subscription_changes_) ctr_subscription_changes_->Inc();
      TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "merge",
                         "unsubscribe", g);
      if (opts_.on_subscription_change) {
        opts_.on_subscription_change(g, false, 0);
      }
      break;
    }
  }
  pending_unsubscribes_.clear();
  for (auto& [src, q] : pending_subscribes_) {
    const GroupId g = src->group();
    std::size_t pos = 0;
    while (pos < groups_.size() && stats_[pos]->group < g) ++pos;
    if (pos < groups_.size() && stats_[pos]->group == g) continue;  // dup
    src->OnStart(env);
    const InstanceId start = src->next_instance();
    auto st = std::make_unique<GroupStats>();
    st->group = g;
    if (metrics_ != nullptr) {
      const std::string prefix = "merge.g" + std::to_string(g) + ".";
      GroupInstruments ins;
      ins.consumed = &metrics_->counter(prefix + "consumed");
      ins.turns = &metrics_->counter(prefix + "turns");
      ins.skip_consumed = &metrics_->counter(prefix + "skip_consumed");
      ins.delivered = &metrics_->counter(prefix + "delivered");
      ins.discarded = &metrics_->counter(prefix + "discarded");
      instruments_.insert(
          instruments_.begin() + static_cast<std::ptrdiff_t>(pos), ins);
      extra_discard_.erase(g);  // now a merge position; drop the alias
    }
    stats_.insert(stats_.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::move(st));
    quota_.insert(quota_.begin() + static_cast<std::ptrdiff_t>(pos),
                  q > 0 ? q : std::max<std::uint32_t>(1, opts_.m));
    groups_.insert(groups_.begin() + static_cast<std::ptrdiff_t>(pos),
                   std::make_unique<GroupState>(std::move(src)));
    ++subscription_changes_;
    if (ctr_subscription_changes_) ctr_subscription_changes_->Inc();
    TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "merge",
                       "subscribe", g);
    if (opts_.on_subscription_change) {
      opts_.on_subscription_change(g, true, start);
    }
  }
  pending_subscribes_.clear();
  SyncMergeGauges();
}

void MergeLearner::PumpMerge(Env& env) {
  if (halted_ || held_) return;
  if (AtTurnBoundary() &&
      (!pending_subscribes_.empty() || !pending_unsubscribes_.empty())) {
    ApplySubscriptionChanges(env);
  }
  if (groups_.empty()) return;
  // Buffer overflow => permanent halt (paper, Section VI-E / Figure 10).
  if (opts_.max_buffer_msgs > 0 && buffered_msgs() > opts_.max_buffer_msgs) {
    halted_ = true;
    if (ctr_halts_) ctr_halts_->Inc();
    TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance, "merge",
                       "halt", buffered_msgs());
    SyncMergeGauges();
    return;
  }

  while (true) {
    GroupState& g = *groups_[current_];
    GroupInstruments* ins =
        current_ < instruments_.size() ? &instruments_[current_] : nullptr;
    // Consume up to M_g logical instances from the current group.
    const std::uint32_t m = quota_[current_];
    while (consumed_ < m) {
      if (g.pending_skip > 0) {
        const std::uint64_t take =
            std::min<std::uint64_t>(g.pending_skip, m - consumed_);
        g.pending_skip -= take;
        consumed_ += static_cast<std::uint32_t>(take);
        if (ins) {
          ins->consumed->Inc(take);
          ins->skip_consumed->Inc(take);
        }
        continue;
      }
      auto ready = g.source->Pop();
      if (ready && opts_.on_decide) {
        opts_.on_decide(g.source->ack_ring(), ready->instance, ready->value);
      }
      if (!ready) {
        // Blocked: wait for this group's next instance. Mid-turn blocks
        // are merge stalls — the current group lags the others.
        if (consumed_ > 0 && ctr_stalls_) {
          ctr_stalls_->Inc();
          TraceProtocolEvent(env.now(), env.self(), kNoRing, kNoInstance,
                             "merge", "stall", stats_[current_]->group);
        }
        SyncMergeGauges();
        return;
      }
      ++consumed_;
      if (ready->value.is_skip()) {
        stats_[current_]->skipped_logical += ready->value.skip_count;
        g.pending_skip += ready->value.skip_count - 1;  // one consumed now
        if (ins) {
          ins->consumed->Inc();
          ins->skip_consumed->Inc();
        }
      } else {
        if (ins) ins->consumed->Inc();
        Deliver(env, current_, ready->value);
      }
    }
    if (ins) ins->turns->Inc();
    current_ = (current_ + 1) % groups_.size();
    consumed_ = 0;
    // Back at merge position 0 with a whole number of turns consumed
    // from every group: a merge-consistent checkpoint cut
    // (docs/RECOVERY.md) — also where queued subscription changes
    // activate (docs/RECONFIG.md).
    if (current_ == 0) {
      if (opts_.on_turn_boundary) opts_.on_turn_boundary();
      if (!pending_subscribes_.empty() || !pending_unsubscribes_.empty()) {
        ApplySubscriptionChanges(env);
        if (groups_.empty()) return;
      }
    }
  }
}

std::vector<MergeLearner::CutEntry> MergeLearner::CurrentCut() const {
  std::vector<CutEntry> cut;
  cut.reserve(groups_.size());
  for (const auto& g : groups_) {
    cut.push_back(CutEntry{g->source->ack_ring(), g->source->next_instance(),
                           g->pending_skip});
  }
  return cut;
}

void MergeLearner::RestoreCut(const std::vector<CutEntry>& cut,
                              std::uint64_t delivered_count) {
  for (const auto& entry : cut) {
    for (auto& g : groups_) {
      if (g->source->ack_ring() != entry.ring) continue;
      g->source->StartAt(entry.next_instance);
      g->pending_skip = entry.pending_skip;
      break;
    }
  }
  current_ = 0;
  consumed_ = 0;
  comp_queue_.clear();
  total_delivered_ = delivered_count;
  SyncMergeGauges();
}

}  // namespace mrp::multiring
