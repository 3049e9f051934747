// Closed-loop client of the partitioned key-value service. Routes each
// command with atomic multicast: single-partition operations go to the
// partition's group, range queries spanning partitions go to g_all
// (paper Section II-C). Collects one response per involved partition
// before completing a request. Every request carries its own retry
// deadline; a retry re-sends the same command (same req_id, same
// session stamp) under a fresh submission.
//
// Submissions go through a ringpaxos::ClientCore, which follows each
// ring's coordinator through control-channel heartbeats (build the node
// with SimDeployment::AddClient so it hears them), or through an
// admission gateway when one is configured.
//
// Sessions (docs/SESSIONS.md): with a session_id the client opens its
// session on every partition group before the request windows start,
// stamps writes (session_id, session_seq) for exactly-once apply across
// retries and repartitions, backs off on Rejected(kOverload) from the
// gateway, reads from the lease-holding replica when one is configured
// (falling back through the ring on lease loss), and can abandon its
// session and reopen under a new generation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/env.h"
#include "common/fingerprint.h"
#include "reconfig/ring_view.h"
#include "ringpaxos/client_core.h"
#include "ringpaxos/config.h"
#include "smr/command.h"
#include "smr/kvstore.h"

namespace mrp::smr {

struct KvClientConfig {
  Partitioning partitioning{1};
  // rings[p] orders group p; rings[partitions()] orders g_all (optional:
  // present when partitions() > 1).
  std::vector<ringpaxos::RingConfig> rings;
  std::size_t window = 1;          // outstanding requests
  double query_ratio = 0.1;        // fraction of operations that are queries
  double multi_partition_ratio = 0.3;  // fraction of queries spanning partitions
  double delete_ratio = 0.1;
  std::uint32_t value_size = 64;
  std::uint64_t ops_limit = 0;     // stop issuing after this many (0 = run on)
  Duration retry_timeout = Millis(500);
  Duration start_jitter = Millis(2);
  // Admission gateway every submission goes through; kNoNode = straight
  // to the ring coordinator.
  NodeId gateway = kNoNode;
  // Lease-holding replica that serves reads locally (SessionRead); it
  // answers for the whole key space, so set it only on single-partition
  // deployments. kNoNode = every read goes through the ring.
  NodeId read_replica = kNoNode;

  // ---- Elastic routing (docs/RECONFIG.md) ----
  // Versioned routing view, shared with other local roles. When set,
  // key→group and group→ring lookups go through the holder's current
  // RingConfiguration instead of the static partitioning/rings fields,
  // RoutingUpdate messages install new configurations, and Response
  // redirects re-dispatch the command (same req_id, same session stamp)
  // to the range's new owner. Borrowed; must outlive the client.
  reconfig::RingHolder* holder = nullptr;
  // Non-zero: run a session (see the header comment). Abandoning folds
  // a generation into the id, so give each client a distinct small id.
  std::uint64_t session_id = 0;

  // Oracle tap (src/check): fired for every atomic-multicast submission
  // (retries are fresh submissions with new seqs), feeding the
  // decision-integrity oracle's proposed set. Optional.
  std::function<void(const paxos::ClientMsg&)> on_submit;
  // Oracle tap (src/check): a session-stamped write completed (was
  // applied; a refused redirect does not count).
  std::function<void(std::uint64_t sid, std::uint64_t seq)> on_complete;
  // Bench tap: per-request completion latency, issue to last response.
  std::function<void(Duration)> on_latency;
};

class KvClient final : public Protocol {
 public:
  explicit KvClient(KvClientConfig cfg)
      : cfg_(std::move(cfg)), core_(cfg_.on_submit, cfg_.gateway) {}

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  // ---- Fault-plan triggers (check::FaultPlan, tools/fuzz) ----
  // Re-send the most recent command verbatim (same session stamp, fresh
  // submission): a duplicate the replicas must suppress.
  void TriggerDuplicate(Env& env);
  // Re-send every pending command three more times at once.
  void TriggerRetryStorm(Env& env);
  // Sessions only: drop all pending work, close the session and reopen
  // it under a new generation (new sid) through the ordered stream.
  void TriggerAbandon(Env& env);

  std::uint64_t sid() const { return cfg_.session_id + (generation_ << 32); }
  std::uint64_t generation() const { return generation_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t redirects_followed() const { return redirects_followed_; }
  std::uint64_t local_reads() const { return local_reads_; }
  std::uint64_t fallback_reads() const { return fallback_reads_; }
  std::uint64_t ring_reads() const { return ring_reads_; }
  std::uint64_t rejected() const { return rejected_; }
  // Cross-partition queries refused because no ring orders g_all.
  std::uint64_t unroutable() const { return unroutable_; }

  // State digest for the model checker (docs/MODEL_CHECKING.md).
  std::uint64_t Fingerprint() const {
    Fingerprinter f;
    f.U64(static_cast<std::uint64_t>(phase_));
    f.U64(generation_);
    f.U64(session_seq_);
    f.U64(next_req_);
    f.U64(core_.last_seq());
    f.U64(completed_);
    f.U64(rejected_);
    f.U64(retries_);
    f.U64(local_reads_);
    f.U64(fallback_reads_);
    f.U64(pending_.size());
    for (const auto& [id, p] : pending_) {
      f.U64(id);
      f.U64(p.cmd.session_seq);
      f.U64(p.attempts);
    }
    core_.Fold(f);
    return f.digest();
  }

 private:
  enum class Phase : std::uint8_t { kOpening, kRunning, kClosing };

  struct Pending {
    Command cmd;
    std::set<GroupId> awaiting;  // partitions that still owe a response
    TimePoint issued{0};
    TimePoint next_retry{0};
    std::uint32_t attempts = 0;
    // Routing override (session open/close target, redirect
    // destination); kNoGroup = route by key. Retries keep it.
    GroupId forced = kNoGroup;
    bool local_read = false;  // on the SessionRead (not ring) path
    // No ring can order it (Route::refuse): the next retry check
    // completes it as a refusal instead of re-sending it.
    bool refused = false;
  };

  // Where a command goes: the partitions that owe a response and the
  // ring (with its message group and initial coordinator) ordering it.
  struct Route {
    std::set<GroupId> involved;
    bool routable = false;  // false: no ring yet; the retry tries again
    // A cross-partition query with no g_all ring to order it (a holder
    // view without all_group() and no static g_all ring): no retry can
    // help, so the request is refused.
    bool refuse = false;
    RingId ring = 0;
    GroupId group = kNoGroup;
    NodeId hint = kNoNode;
  };

  Command RandomCommand(Env& env);
  std::vector<GroupId> SessionGroups() const;
  // Opens (or closes) the session on every partition group.
  void BeginPhase(Env& env, Phase phase);
  void OnPhaseDone(Env& env);
  void StartNext(Env& env);
  Pending& AddPending(Env& env, Command cmd, GroupId forced);
  Route RouteOf(const Command& cmd, GroupId forced) const;
  // Sends `p` on its path — SessionRead to the lease holder, or an
  // atomic-multicast submission — and returns the partitions that owe a
  // response; marks `p` refused when no ring can order it. Dispatch also
  // re-arms the request's retry deadline.
  std::set<GroupId> Send(Env& env, Pending& p);
  void Dispatch(Env& env, Pending& p);
  void FallBackToRing(Pending& p);
  void CheckRetries(Env& env);
  void OnResponse(Env& env, const Response& resp);
  // `applied` = false: the request ended in a refusal (a redirect the
  // client cannot follow), so the on_complete tap stays silent.
  void Complete(Env& env, const Command& cmd, TimePoint issued, bool applied);

  KvClientConfig cfg_;
  ringpaxos::ClientCore core_;
  Phase phase_ = Phase::kOpening;
  std::uint64_t generation_ = 0;
  std::uint64_t next_req_ = 0;
  std::uint64_t session_seq_ = 0;  // last session seqno handed out
  std::uint64_t issued_ops_ = 0;
  std::size_t control_outstanding_ = 0;       // open/close acks still owed
  std::map<std::uint64_t, Pending> pending_;  // by req_id
  std::optional<Command> last_command_;       // for TriggerDuplicate
  std::uint64_t completed_ = 0;
  std::uint64_t redirects_followed_ = 0;
  std::uint64_t local_reads_ = 0;
  std::uint64_t fallback_reads_ = 0;
  std::uint64_t ring_reads_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t unroutable_ = 0;
  Counter* ctr_unroutable_ = nullptr;  // lazily created
  // Session instruments (resolved in OnStart when a session runs).
  Counter* ctr_completed_ = nullptr;
  Counter* ctr_rejected_ = nullptr;
  Counter* ctr_local_reads_ = nullptr;
  Counter* ctr_fallback_reads_ = nullptr;
};

}  // namespace mrp::smr
