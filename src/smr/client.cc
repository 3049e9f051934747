#include "smr/client.h"

#include <algorithm>
#include <string>
#include <utility>

#include "reconfig/messages.h"
#include "session/messages.h"

namespace mrp::smr {

namespace {

// How often pending requests are checked against their retry deadlines.
constexpr Duration kRetryTick = Millis(20);
// Rejected(kOverload) backoff: doubles per attempt from base up to max.
constexpr Duration kBackoffBase = Millis(2);
constexpr Duration kBackoffMax = Millis(200);
// Local-read attempts before a read falls back through the ring (covers
// a crashed or unreachable lease holder).
constexpr std::uint32_t kReadRetryLimit = 2;

bool IsControl(const Command& cmd) {
  return cmd.op == Command::Op::kSessionOpen ||
         cmd.op == Command::Op::kSessionClose;
}

Duration Backoff(std::uint32_t attempts) {
  Duration d = kBackoffBase;
  for (std::uint32_t i = 1; i < attempts && d < kBackoffMax; ++i) d += d;
  return std::min(d, kBackoffMax);
}

}  // namespace

void KvClient::OnStart(Env& env) {
  if (cfg_.session_id != 0) {
    MetricsRegistry& reg = env.metrics();
    ctr_completed_ = &reg.counter("session.client.completed");
    ctr_rejected_ = &reg.counter("session.client.rejected");
    ctr_local_reads_ = &reg.counter("session.client.local_reads");
    ctr_fallback_reads_ = &reg.counter("session.client.fallback_reads");
  }
  Duration jitter{0};
  if (cfg_.start_jitter.count() > 0) {
    jitter = Duration(static_cast<std::int64_t>(
        env.rng().uniform() * static_cast<double>(cfg_.start_jitter.count())));
  }
  env.SetTimer(jitter, [this, &env] {
    if (cfg_.session_id != 0) {
      BeginPhase(env, Phase::kOpening);
    } else {
      OnPhaseDone(env);
    }
  });
  env.SetTimer(kRetryTick, [this, &env] { CheckRetries(env); });
}

std::vector<GroupId> KvClient::SessionGroups() const {
  std::vector<GroupId> groups;
  if (cfg_.holder != nullptr && cfg_.holder->Get() != nullptr) {
    for (const auto& r : cfg_.holder->Get()->ranges()) {
      if (std::find(groups.begin(), groups.end(), r.group) == groups.end()) {
        groups.push_back(r.group);
      }
    }
    std::sort(groups.begin(), groups.end());
  } else {
    for (GroupId p = 0; p < cfg_.partitioning.partitions(); ++p) {
      groups.push_back(p);
    }
  }
  return groups;
}

// Session opens and closes ride the ordered streams of every partition
// group, so each replica admits (or retires) the session in stream
// order; the next phase starts once every group acknowledged.
void KvClient::BeginPhase(Env& env, Phase phase) {
  phase_ = phase;
  const std::vector<GroupId> groups = SessionGroups();
  control_outstanding_ = groups.size();
  if (groups.empty()) {
    OnPhaseDone(env);
    return;
  }
  for (GroupId g : groups) {
    Command c = phase == Phase::kOpening ? Command::SessionOpen(sid())
                                         : Command::SessionClose(sid());
    Dispatch(env, AddPending(env, std::move(c), g));
  }
}

void KvClient::OnPhaseDone(Env& env) {
  if (phase_ == Phase::kClosing) {
    ++generation_;
    session_seq_ = 0;
    BeginPhase(env, Phase::kOpening);
    return;
  }
  phase_ = Phase::kRunning;
  for (std::size_t i = 0; i < cfg_.window; ++i) StartNext(env);
}

Command KvClient::RandomCommand(Env& env) {
  auto& rng = env.rng();
  const Key space = cfg_.partitioning.space();
  Command cmd;
  if (rng.uniform() < cfg_.query_ratio) {
    Key lo;
    Key span;
    if (cfg_.partitioning.partitions() > 1 &&
        rng.uniform() < cfg_.multi_partition_ratio) {
      // Range spanning at least two partitions.
      const Key width = space / cfg_.partitioning.partitions();
      lo = rng.below(space - width);
      span = width + rng.below(width);
    } else {
      // Range within one partition.
      const GroupId p =
          static_cast<GroupId>(rng.below(cfg_.partitioning.partitions()));
      const auto [plo, phi] = cfg_.partitioning.RangeOf(p);
      lo = plo + rng.below(phi - plo);
      span = std::min<Key>(64, phi - lo);
    }
    cmd = Command::Query(lo, std::min(lo + span, space - 1));
  } else if (rng.uniform() < cfg_.delete_ratio) {
    cmd = Command::Delete(rng.below(space));
  } else {
    cmd = Command::Insert(rng.below(space),
                          std::string(cfg_.value_size, 'v'));
  }
  return cmd;
}

KvClient::Pending& KvClient::AddPending(Env& env, Command cmd, GroupId forced) {
  cmd.req_id = ++next_req_;
  cmd.client = env.self();
  Pending& p = pending_[cmd.req_id];
  p.cmd = std::move(cmd);
  p.issued = env.now();
  p.forced = forced;
  return p;
}

void KvClient::StartNext(Env& env) {
  if (phase_ != Phase::kRunning) return;
  if (cfg_.ops_limit > 0 && issued_ops_ >= cfg_.ops_limit) return;
  ++issued_ops_;
  Command cmd = RandomCommand(env);
  const bool read = cmd.op == Command::Op::kQuery;
  if (cfg_.session_id != 0 && !read) {
    cmd.session_id = sid();
    cmd.session_seq = ++session_seq_;
  }
  Pending& p = AddPending(env, std::move(cmd), kNoGroup);
  p.local_read = read && cfg_.read_replica != kNoNode;
  if (read && !p.local_read) ++ring_reads_;
  Dispatch(env, p);
}

KvClient::Route KvClient::RouteOf(const Command& cmd, GroupId forced) const {
  // Routing: single-partition ops to the owning group; cross-partition
  // queries to g_all. With a RingHolder the lookups go through the
  // current versioned RingConfiguration (docs/RECONFIG.md); the static
  // partitioning/rings fields remain the fallback for keys the view
  // does not map (mid-reconfiguration gaps heal via redirects/retries).
  std::shared_ptr<const reconfig::RingConfiguration> view;
  if (cfg_.holder != nullptr) view = cfg_.holder->Get();

  Route r;
  GroupId route = kNoGroup;     // holder routing: group whose ring we use
  std::size_t ring_idx = 0;     // static routing: index into cfg_.rings
  bool spans = false;           // a cross-partition query, ordered by g_all
  if (forced != kNoGroup) {
    r.involved.insert(forced);
    route = forced;
    ring_idx = forced;
  } else if (cmd.op == Command::Op::kQuery &&
             (view != nullptr
                  ? !view->SinglePartition(cmd.kmin, cmd.kmax)
                  : !cfg_.partitioning.SinglePartition(cmd.kmin, cmd.kmax))) {
    ring_idx = cfg_.partitioning.partitions();  // g_all
    spans = true;
    if (view != nullptr) {
      for (GroupId p : view->GroupsOverlapping(cmd.kmin, cmd.kmax)) {
        r.involved.insert(p);
      }
      route = view->all_group();
    } else {
      const GroupId first = cfg_.partitioning.PartitionOf(cmd.kmin);
      const GroupId last = cfg_.partitioning.PartitionOf(cmd.kmax);
      for (GroupId p = first; p <= last; ++p) r.involved.insert(p);
    }
  } else {
    const Key k = cmd.op == Command::Op::kQuery ? cmd.kmin : cmd.key;
    if (view != nullptr) route = view->GroupOfKey(k);
    if (route != kNoGroup) {
      r.involved.insert(route);
    } else {
      ring_idx = cfg_.partitioning.PartitionOf(k);
      r.involved.insert(static_cast<GroupId>(ring_idx));
    }
  }

  const reconfig::GroupRoute* rt =
      view != nullptr && route != kNoGroup ? view->RouteOf(route) : nullptr;
  if (rt != nullptr) {
    r.routable = true;
    r.ring = rt->ring;
    r.group = rt->group;
    r.hint = rt->coordinator;
  } else if (ring_idx < cfg_.rings.size()) {
    const auto& ring = cfg_.rings[ring_idx];
    r.routable = true;
    r.ring = ring.ring;
    r.group = ring.group;
    r.hint = ring.ring_members.empty() ? kNoNode : ring.ring_members[0];
  }
  r.refuse = spans && !r.routable;
  return r;
}

std::set<GroupId> KvClient::Send(Env& env, Pending& p) {
  if (p.local_read) {
    env.Send(cfg_.read_replica,
             MakeMessage<session::SessionRead>(sid(), p.cmd.req_id,
                                               p.cmd.kmin, p.cmd.kmax));
    return {};
  }
  if (!IsControl(p.cmd)) last_command_ = p.cmd;
  Route r = RouteOf(p.cmd, p.forced);
  if (r.routable) {
    core_.Seed(r.ring, r.hint);
    paxos::ClientMsg msg;
    msg.group = r.group;
    msg.payload = p.cmd.Encode();
    msg.payload_size = static_cast<std::uint32_t>(msg.payload.size());
    core_.Stamp(env, msg);
    core_.Submit(env, r.ring, std::move(msg));
  }
  p.refused = r.refuse;
  return std::move(r.involved);
}

void KvClient::Dispatch(Env& env, Pending& p) {
  p.next_retry = env.now() + cfg_.retry_timeout;
  p.awaiting = Send(env, p);
  // Refused: due at the next retry check, which completes it.
  if (p.refused) p.next_retry = env.now();
}

void KvClient::FallBackToRing(Pending& p) {
  p.local_read = false;
  ++fallback_reads_;
  if (ctr_fallback_reads_) ctr_fallback_reads_->Inc();
}

void KvClient::CheckRetries(Env& env) {
  // Collect first: completing a refused request edits pending_.
  std::vector<std::uint64_t> due;
  for (const auto& [id, p] : pending_) {
    if (env.now() >= p.next_retry) due.push_back(id);
  }
  for (std::uint64_t id : due) {
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    Pending& p = it->second;
    if (p.refused) {
      // No ring orders this query (Route::refuse): complete it as a
      // refusal so it stops holding a window slot.
      ++unroutable_;
      if (ctr_unroutable_ == nullptr) {
        ctr_unroutable_ = &env.metrics().counter("smr.client.unroutable");
      }
      ctr_unroutable_->Inc();
      const Command done = std::move(p.cmd);
      const TimePoint issued = p.issued;
      pending_.erase(it);
      Complete(env, done, issued, /*applied=*/false);
      continue;
    }
    ++p.attempts;
    ++retries_;
    // Lease holder unreachable: fall back through the ring.
    if (p.local_read && p.attempts > kReadRetryLimit) FallBackToRing(p);
    Dispatch(env, p);
  }
  env.SetTimer(kRetryTick, [this, &env] { CheckRetries(env); });
}

void KvClient::Complete(Env& env, const Command& cmd, TimePoint issued,
                        bool applied) {
  ++completed_;
  if (ctr_completed_) ctr_completed_->Inc();
  if (cfg_.on_latency) cfg_.on_latency(env.now() - issued);
  if (applied && cmd.session_seq != 0 && cfg_.on_complete) {
    cfg_.on_complete(cmd.session_id, cmd.session_seq);
  }
  StartNext(env);
}

void KvClient::OnResponse(Env& env, const Response& resp) {
  auto it = pending_.find(resp.req_id);
  if (it == pending_.end()) return;  // a sibling replica's duplicate
  Pending& p = it->second;
  if (p.awaiting.count(resp.partition) == 0) return;
  const bool redirected = !resp.ok && resp.redirect != kNoGroup;
  if (redirected && (cfg_.holder != nullptr ||
                     RouteOf(p.cmd, resp.redirect).routable)) {
    // The key range moved mid-flight (docs/RECONFIG.md): re-dispatch the
    // same command — same req_id, same session stamp, so dedup still
    // holds if the original lands anywhere — pinned to the new owner. A
    // holder-routed client always follows (its view catches up through
    // RoutingUpdate); a static client with no ring for the new owner
    // takes the refusal as the answer.
    p.forced = resp.redirect;
    ++redirects_followed_;
    Dispatch(env, p);
    return;
  }
  p.awaiting.erase(resp.partition);
  if (!p.awaiting.empty()) return;
  const Command done = std::move(p.cmd);
  const TimePoint issued = p.issued;
  pending_.erase(it);
  if (!IsControl(done)) {
    Complete(env, done, issued, /*applied=*/!redirected);
  } else if (--control_outstanding_ == 0) {
    OnPhaseDone(env);
  }
}

void KvClient::OnMessage(Env& env, NodeId /*from*/, const MessagePtr& m) {
  if (core_.OnMessage(*m)) return;
  switch (m->tag()) {
    case Response::kTag:
      OnResponse(env, static_cast<const Response&>(*m));
      break;
    case reconfig::RoutingUpdate::kTag: {
      const auto& ru = static_cast<const reconfig::RoutingUpdate&>(*m);
      if (cfg_.holder != nullptr) {
        if (auto rc = reconfig::RingConfiguration::Decode(ru.config)) {
          cfg_.holder->Install(std::move(*rc));
        }
      }
      break;
    }
    case session::SessionReadRep::kTag: {
      const auto& rep = static_cast<const session::SessionReadRep&>(*m);
      auto it = pending_.find(rep.req_id);
      if (it == pending_.end() || !it->second.local_read) return;
      Pending& p = it->second;
      if (rep.status == session::SessionReadRep::kOk) {
        ++local_reads_;
        if (ctr_local_reads_) ctr_local_reads_->Inc();
        const Command done = std::move(p.cmd);
        const TimePoint issued = p.issued;
        pending_.erase(it);
        Complete(env, done, issued, /*applied=*/true);
        return;
      }
      // Lease lost at the holder: retry the same req_id through the ring.
      FallBackToRing(p);
      Dispatch(env, p);
      break;
    }
    case session::Rejected::kTag: {
      const auto& rej = static_cast<const session::Rejected&>(*m);
      auto it = pending_.find(rej.req_id);
      if (it == pending_.end()) return;
      ++rejected_;
      if (ctr_rejected_) ctr_rejected_->Inc();
      Pending& p = it->second;
      ++p.attempts;
      p.next_retry = env.now() + Backoff(p.attempts);
      break;
    }
    default:
      break;
  }
}

void KvClient::TriggerDuplicate(Env& env) {
  if (last_command_) {
    Pending dup;
    dup.cmd = *last_command_;
    Send(env, dup);
    return;
  }
  for (auto& [id, p] : pending_) {
    if (!IsControl(p.cmd) && !p.local_read) {
      Send(env, p);
      return;
    }
  }
}

void KvClient::TriggerRetryStorm(Env& env) {
  for (auto& [id, p] : pending_) {
    if (IsControl(p.cmd)) continue;
    for (int i = 0; i < 3; ++i) {
      ++retries_;
      Send(env, p);
    }
  }
}

void KvClient::TriggerAbandon(Env& env) {
  if (cfg_.session_id == 0 || phase_ != Phase::kRunning) return;
  pending_.clear();
  BeginPhase(env, Phase::kClosing);
}

}  // namespace mrp::smr
