// WorkloadDriver: one protocol node multiplexing thousands of open-loop
// client sessions over one or more rings (docs/WORKLOADS.md). Instead
// of a SimNode per client — untenable at 10^5 sessions — the driver
// keeps a pooled record per session, runs each session's arrival
// process on the shared timer wheel, and stamps submissions so
// deliveries route back to per-tenant latency histograms.
//
// Submission is pure open loop: the driver never waits for SubmitAcks,
// so offered load is exactly what the arrival processes dictate (the
// merge-learner saturation sweeps need the load to not back off).
// Submissions go through a ringpaxos::ClientCore, which follows each
// ring's coordinator through its control-channel heartbeats.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/env.h"
#include "common/fingerprint.h"
#include "common/pool.h"
#include "common/stats.h"
#include "common/types.h"
#include "paxos/value.h"
#include "ringpaxos/client_core.h"
#include "ringpaxos/config.h"
#include "workload/tenant.h"

namespace mrp::workload {

struct DriverConfig {
  // The rings the driver submits to (ring id, group, and ring_members[0]
  // as the initial coordinator hint). Sessions are instantiated per
  // ring: a driver bound to R rings runs mix.total_sessions_per_ring()
  // x R sessions.
  std::vector<ringpaxos::RingConfig> rings;
  MixSpec mix;
  // Session starts are staggered uniformly over this window so a fleet
  // does not begin in lockstep.
  Duration start_jitter = Millis(5);
  // Distinguishes session ids across driver nodes (command mode):
  // session_id = (driver_id + 1) << 32 | session index.
  std::uint64_t driver_id = 0;
  // Oracle tap (src/check): fired once per fresh submission.
  std::function<void(const paxos::ClientMsg&)> on_submit;
};

class WorkloadDriver final : public Protocol {
 public:
  explicit WorkloadDriver(DriverConfig cfg)
      : cfg_(std::move(cfg)), core_(cfg_.on_submit) {}

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  // Feed from the learner side (merge learner on_deliver or a bench
  // loop): messages stamped by this driver update per-tenant delivery
  // counts and latency. Messages from other proposers are ignored, so
  // many drivers can share one learner callback.
  void RecordDelivery(TimePoint now, const paxos::ClientMsg& msg);

  struct TenantStats {
    std::uint64_t submitted = 0;
    std::uint64_t delivered = 0;
    Histogram latency;  // ns, submit -> learner delivery
  };

  NodeId self() const { return self_; }
  std::uint64_t total_submitted() const { return total_submitted_; }
  std::uint64_t total_delivered() const { return total_delivered_; }
  std::size_t session_count() const { return sessions_.size(); }
  const TenantStats& tenant_stats(std::size_t tenant) const {
    return stats_[tenant];
  }
  RateMeter& sent() { return sent_; }

  // Which tenant stamped this message, or a negative value if the seq
  // was not produced by a WorkloadDriver. The tenant index rides the
  // seq's high bits; the low bits stay a per-tenant counter so seqs are
  // unique per (proposer, seq) as the oracles expect.
  static std::int64_t TenantOfSeq(std::uint64_t seq) {
    return static_cast<std::int64_t>(seq >> kTenantShift) - 1;
  }

  // State digest (docs/MODEL_CHECKING.md): generator phase and
  // submission cursors; delivery timing (histograms, meters) excluded.
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(cfg_.driver_id);
    f.U64(sessions_.size());
    for (const auto* s : sessions_) {
      f.U64(s->next_session_seq);
      f.Bool(s->opened);
      f.U64(s->arrival.Fingerprint());
    }
    for (const auto& k : keygens_) f.U64(k.Fingerprint());
    for (const auto& c : tenant_seq_) f.U64(c);
    for (const auto& r : cfg_.rings) f.U32(core_.coordinator(r.ring));
    return f.digest();
  }

 private:
  static constexpr unsigned kTenantShift = 48;

  struct Session {
    std::uint32_t tenant = 0;
    std::uint32_t ring_slot = 0;
    std::uint64_t session_id = 0;
    std::uint64_t next_session_seq = 0;  // command mode cursor
    bool opened = false;                 // kSessionOpen emitted?
    ArrivalProcess arrival;
  };

  void ScheduleNext(Env& env, Session* s, TimePoint at);
  void Fire(Env& env, Session* s);
  paxos::ClientMsg BuildMessage(Env& env, Session* s);

  DriverConfig cfg_;
  ringpaxos::ClientCore core_;
  NodeId self_ = kNoNode;
  std::vector<Session*> sessions_;  // owned by pool_
  ObjectPool<Session> pool_;
  std::vector<KeyGenerator> keygens_;      // one per tenant
  std::vector<std::uint64_t> tenant_seq_;  // per-tenant seq low bits
  std::vector<TenantStats> stats_;
  RateMeter sent_;
  std::uint64_t total_submitted_ = 0;
  std::uint64_t total_delivered_ = 0;
  Counter* ctr_submitted_ = nullptr;
  Counter* ctr_delivered_ = nullptr;
};

}  // namespace mrp::workload
