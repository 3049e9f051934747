#include "workload/driver.h"

#include <string>
#include <utility>

#include "smr/command.h"

namespace mrp::workload {

void WorkloadDriver::OnStart(Env& env) {
  self_ = env.self();
  ctr_submitted_ = &env.metrics().counter("workload.submitted");
  ctr_delivered_ = &env.metrics().counter("workload.delivered");

  const auto tenants = cfg_.mix.tenants.size();
  keygens_.clear();
  keygens_.reserve(tenants);
  tenant_seq_.assign(tenants, 0);
  stats_.assign(tenants, TenantStats{});
  for (const auto& t : cfg_.mix.tenants) keygens_.emplace_back(t.keys);

  for (const auto& r : cfg_.rings) {
    core_.Seed(r.ring, r.ring_members.empty() ? kNoNode : r.ring_members[0]);
  }

  // On a restart the pool still owns the previous incarnation's
  // records; recycle them before building the fresh session fleet.
  for (auto* s : sessions_) pool_.Release(s);
  sessions_.clear();
  sessions_.reserve(static_cast<std::size_t>(
                        cfg_.mix.total_sessions_per_ring()) *
                    cfg_.rings.size());

  const auto jitter = static_cast<std::uint64_t>(cfg_.start_jitter.count());
  for (std::size_t slot = 0; slot < cfg_.rings.size(); ++slot) {
    for (std::uint32_t tenant = 0; tenant < tenants; ++tenant) {
      const auto& spec = cfg_.mix.tenants[tenant];
      for (std::uint32_t k = 0; k < spec.sessions; ++k) {
        Session* s = pool_.Acquire();
        // Pooled records carry prior state; reset every field.
        s->tenant = tenant;
        s->ring_slot = static_cast<std::uint32_t>(slot);
        s->session_id = ((cfg_.driver_id + 1) << 32) |
                        static_cast<std::uint64_t>(sessions_.size());
        s->next_session_seq = 0;
        s->opened = false;
        s->arrival = ArrivalProcess(&spec.arrival);
        sessions_.push_back(s);

        const Duration start{
            jitter == 0 ? 0
                        : static_cast<Duration::rep>(env.rng().below(jitter))};
        ScheduleNext(env, s, env.now() + start);
      }
    }
  }
}

void WorkloadDriver::ScheduleNext(Env& env, Session* s, TimePoint at) {
  const TimePoint next = s->arrival.Next(at, env.rng());
  const Duration delay = next > env.now() ? next - env.now() : Duration{0};
  env.SetTimer(delay, [this, &env, s] {
    Fire(env, s);
    ScheduleNext(env, s, env.now());
  });
}

void WorkloadDriver::Fire(Env& env, Session* s) {
  paxos::ClientMsg msg = BuildMessage(env, s);
  auto& st = stats_[s->tenant];
  ++st.submitted;
  ++total_submitted_;
  sent_.Add(1, msg.payload_size);
  ctr_submitted_->Inc();
  // With no coordinator known the message is dropped (open loop).
  core_.Submit(env, cfg_.rings[s->ring_slot].ring, std::move(msg));
}

paxos::ClientMsg WorkloadDriver::BuildMessage(Env& env, Session* s) {
  const auto& spec = cfg_.mix.tenants[s->tenant];
  paxos::ClientMsg msg;
  msg.group = cfg_.rings[s->ring_slot].group;
  msg.seq = (static_cast<std::uint64_t>(s->tenant + 1) << kTenantShift) |
            ++tenant_seq_[s->tenant];
  core_.Stamp(env, msg);

  if (!spec.encode_commands) {
    // Raw mode: opaque payload, size only (the simulator never reads
    // payload bytes; the wire codecs fill unset payloads with zeros).
    msg.payload_size = spec.payload_bytes;
    return msg;
  }

  // Command mode: session-stamped smr::Command so replicas dedup
  // through the PR-8 session layer. The first command a session ships
  // is its kSessionOpen; every command stamps a contiguous session_seq.
  smr::Command cmd;
  if (!s->opened) {
    cmd = smr::Command::SessionOpen(s->session_id);
    s->opened = true;
  } else {
    const std::uint64_t key = keygens_[s->tenant].Next(env.rng());
    if (spec.read_ratio > 0 && env.rng().uniform() < spec.read_ratio) {
      cmd = smr::Command::Query(key, key);
    } else {
      cmd = smr::Command::Insert(key,
                                 std::string(spec.payload_bytes, 'v'));
    }
  }
  cmd.session_id = s->session_id;
  cmd.session_seq = ++s->next_session_seq;
  Bytes encoded = cmd.Encode();
  msg.payload_size = static_cast<std::uint32_t>(encoded.size());
  msg.payload = PayloadBuf(std::move(encoded));
  return msg;
}

void WorkloadDriver::OnMessage(Env& /*env*/, NodeId /*from*/,
                               const MessagePtr& m) {
  // Heartbeats move the coordinator hints. SubmitAcks and everything
  // else are ignored: the driver is open-loop.
  core_.OnMessage(*m);
}

void WorkloadDriver::RecordDelivery(TimePoint now, const paxos::ClientMsg& msg) {
  if (msg.proposer != self_) return;
  const std::int64_t tenant = TenantOfSeq(msg.seq);
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= stats_.size()) return;
  auto& st = stats_[static_cast<std::size_t>(tenant)];
  ++st.delivered;
  ++total_delivered_;
  ctr_delivered_->Inc();
  if (now >= msg.sent_at) st.latency.Record(now - msg.sent_at);
}

}  // namespace mrp::workload
