// Static configuration of one Ring Paxos instance ("ring").
//
// The acceptor universe is ring_members + spares (2f+1 nodes); only the
// f+1 ring_members take part in Phase 2 (Section IV-C / Cheap Paxos),
// the spares are recruited on reconfiguration. A decision requires a
// Phase 2 vote from EVERY current ring member, which is a majority of
// the universe; Phase 1 requires promises from a majority of the
// universe. Both quorums therefore intersect and the standard Paxos
// safety argument applies across reconfigurations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace mrp::ringpaxos {

struct RingConfig {
  RingId ring = 0;
  GroupId group = 0;  // the multicast group this ring orders (1 ring : 1 group)

  // Initial ring layout (layout[0] = initial coordinator) and spares.
  std::vector<NodeId> ring_members;
  std::vector<NodeId> spares;

  // ip-multicast channels. Data: P2A/Decision, subscribed by acceptors
  // and learners. Control: heartbeats, subscribed by the universe and by
  // proposers (to track the coordinator's identity).
  ChannelId data_channel = 0;
  ChannelId control_channel = 0;

  // Batching (paper footnote 1: ~8 kB batches, proposed when full or on
  // timeout) and the consensus pipeline depth.
  std::size_t batch_bytes = 8 * 1024;
  Duration batch_timeout = Millis(1);
  std::size_t window = 64;

  // Multi-Ring Paxos skip policy (Algorithm 1). lambda_per_sec is the
  // maximum expected consensus-instance rate of any group; 0 disables
  // skips (plain Ring Paxos). delta is the sampling interval.
  double lambda_per_sec = 0;
  Duration delta = Millis(1);
  // Batch all of an interval's skip instances into ONE physical
  // consensus (Section IV-D: "the cost of executing any number of skip
  // instances is the same as the cost of executing a single skip
  // instance"). False = Algorithm 1 executed literally, one consensus
  // per skipped instance — kept for the ablation benchmark.
  bool batch_skips = true;
  // Per-interval cap on unbatched skip proposals (safety valve so the
  // literal mode cannot melt the coordinator).
  std::size_t unbatched_skip_cap = 256;
  // Algorithm 1 (line 19, prev_k <- k) permanently advances a ring's
  // logical schedule when a burst exceeds lambda, leaving merge learners
  // with a standing buffer against slower rings. With skip_resync the
  // quota baseline never moves past the lambda*t schedule, so bursty
  // rings fall back in sync once the burst passes (an extension beyond
  // the paper; see the Figure 12 benchmark's note).
  bool skip_resync = false;
  // Ablation: disseminate Phase 2A by unicasting to every node in
  // fanout_targets instead of ip-multicast. Quantifies the multicast
  // advantage Ring Paxos is built on (the coordinator pays tx cost once
  // per packet with multicast, once per receiver without).
  bool unicast_fanout = false;
  std::vector<NodeId> fanout_targets;

  // Whether the coordinator unicasts SubmitAck to proposers when their
  // messages decide (used by coordinator-acked windowed proposers).
  bool ack_submits = false;

  // Retransmission and fail-over tuning.
  Duration p2_retry = Millis(20);
  Duration decision_flush = Millis(1);
  Duration heartbeat_interval = Millis(20);
  Duration suspect_after = Millis(100);
  Duration phase1_timeout = Millis(100);

  // Acceptors keep this many decided instances for learner recovery.
  std::size_t trim_keep = 50'000;
  // Safety-tied trimming (docs/RECOVERY.md): when true, the acceptor
  // additionally never trims at or above the cluster-wide stable
  // checkpoint frontier advertised by the CheckpointCoordinator on the
  // control channel (recovery::FrontierAdvert). Until a frontier is
  // heard NOTHING is trimmed — a recovering learner must always find
  // every instance its restored checkpoint does not cover. False keeps
  // the unconditional trim_keep retention policy.
  bool frontier_gated_trim = false;

  // Test-only bug re-injection (model-checker fixture, satellite of
  // docs/MODEL_CHECKING.md): when true, a takeover coordinator builds
  // its layout from the alive ring members WITHOUT padding it to a
  // universe majority, and skips the sub-majority guards on the decision
  // paths — reverting the fix for the historical CurrentLayoutAlive bug
  // the chaos fuzzer found (see ring_node.cc). A sub-majority layout can
  // then decide without a universe-majority quorum, which a later
  // takeover may not observe: the agreement oracle must fire. Never set
  // outside tests/tools.
  bool test_unsafe_submajority_layout = false;

  std::vector<NodeId> Universe() const {
    std::vector<NodeId> u = ring_members;
    u.insert(u.end(), spares.begin(), spares.end());
    return u;
  }

  std::size_t UniverseMajority() const {
    return (ring_members.size() + spares.size()) / 2 + 1;
  }

  // Round ownership: round r is owned by universe[r % |universe|], so
  // round 0 belongs to ring_members[0].
  NodeId RoundOwner(Round r) const {
    const auto u = Universe();
    return u[r % u.size()];
  }

  // The next round > `from` owned by `node` (kNoNode-safe: node must be
  // in the universe).
  Round NextRoundOwnedBy(NodeId node, Round from) const {
    const auto u = Universe();
    auto it = std::find(u.begin(), u.end(), node);
    const auto idx = static_cast<Round>(it - u.begin());
    const auto n = static_cast<Round>(u.size());
    Round r = (from / n) * n + idx;
    while (r <= from) r += n;
    return r;
  }

  bool InUniverse(NodeId node) const {
    const auto u = Universe();
    return std::find(u.begin(), u.end(), node) != u.end();
  }
};

// One learner's view of one ring: the ring plus its recovery knobs (the
// recovery cadence is the hosting MergeLearner's tick_interval).
struct LearnerOptions {
  RingConfig ring;
  std::uint32_t recovery_batch = 32;
  // When several groups are mapped to this ring (Section IV-D), a
  // learner may subscribe to a subset: unsubscribed messages are still
  // received and ordered (they waste the learner's bandwidth and CPU,
  // as the paper notes) but are discarded instead of delivered. Empty =
  // deliver every group on the ring.
  std::vector<GroupId> subscribe_only;
  // Test-only fault injection (chaos fuzzer self-check, docs/CHECKING.md):
  // the first non-skip instance >= this id popped by THIS core has its
  // first message's seq corrupted, so this learner's decided stream
  // diverges from its peers and the agreement oracle must fire. Never
  // set outside tests. 0 = disabled.
  InstanceId test_corrupt_instance = 0;
};

}  // namespace mrp::ringpaxos
