// DeploymentSpec: the one description of a Multi-Ring Paxos layout (ring
// count, members and spares per ring, per-ring knobs and lambda) and the
// one place that derives what each host needs from it, as
// lightning-prototype's RingConfiguration (SNIPPETS.md) does:
//   - ring r orders group r on data channel 2r and control channel 2r+1;
//   - node ids run ring-major from 0: ring r's members, then its spares;
//   - a learner of rings S joins each ring's data and control channels
//     and gets one LearnerOptions per ring; a client joins only the
//     control channels.
// SimDeployment and runtime::LocalCluster both instantiate a spec, so one
// spec yields the same RingConfigs and node ids on both paths.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "ringpaxos/config.h"

namespace mrp::multiring {

struct DeploymentSpec {
  int n_rings = 1;
  int ring_size = 2;   // in-ring acceptors (f+1), coordinator included
  int n_spares = 0;    // spare acceptors per ring
  double lambda_per_sec = 9000;   // paper default
  Duration delta = Millis(1);     // paper default
  // Per-ring tuning knobs copied into every RingConfig.
  std::size_t batch_bytes = 8 * 1024;
  Duration batch_timeout = Millis(1);
  std::size_t window = 64;
  bool ack_submits = false;
  bool batch_skips = true;  // false = Algorithm-1-literal skips (ablation)
  bool skip_resync = false;  // absolute lambda*t schedule (extension)
  std::size_t trim_keep = 50'000;  // acceptor log retention (instances)
  // Safety-tied trimming (docs/RECOVERY.md): acceptors only trim below
  // the stable checkpoint frontier advertised by a CheckpointCoordinator.
  bool frontier_gated_trim = false;
  Duration suspect_after = Millis(100);
  Duration heartbeat_interval = Millis(20);
  // Per-ring maximum-rate override lambda_r (msgs/s); rings beyond the
  // vector use the uniform lambda_per_sec. Rate-skewed rings are the
  // scenario per-group merge quotas M_g exist for.
  std::vector<double> ring_lambda;

  int universe_size() const { return ring_size + n_spares; }
  // Ring nodes take ids [0, ring_node_count()); other nodes follow.
  int ring_node_count() const { return n_rings * universe_size(); }
  // Universe member `idx` of ring `ring`: members first, then spares.
  NodeId acceptor_id(int ring, int idx) const {
    return static_cast<NodeId>(ring * universe_size() + idx);
  }
  // The ring node `id` is an acceptor of, or -1 past the ring nodes.
  int acceptor_ring(NodeId id) const {
    return id < static_cast<NodeId>(ring_node_count())
               ? static_cast<int>(id) / universe_size()
               : -1;
  }
  static ChannelId data_channel(int r) { return static_cast<ChannelId>(2 * r); }
  static ChannelId control_channel(int r) {
    return static_cast<ChannelId>(2 * r + 1);
  }

  ringpaxos::RingConfig Ring(int r) const {
    ringpaxos::RingConfig cfg;
    cfg.ring = static_cast<RingId>(r);
    cfg.group = static_cast<GroupId>(r);
    cfg.data_channel = data_channel(r);
    cfg.control_channel = control_channel(r);
    cfg.lambda_per_sec = r < static_cast<int>(ring_lambda.size())
                             ? ring_lambda[static_cast<std::size_t>(r)]
                             : lambda_per_sec;
    cfg.delta = delta;
    cfg.batch_bytes = batch_bytes;
    cfg.batch_timeout = batch_timeout;
    cfg.window = window;
    cfg.ack_submits = ack_submits;
    cfg.batch_skips = batch_skips;
    cfg.skip_resync = skip_resync;
    cfg.trim_keep = trim_keep;
    cfg.frontier_gated_trim = frontier_gated_trim;
    cfg.suspect_after = suspect_after;
    cfg.heartbeat_interval = heartbeat_interval;
    for (int i = 0; i < universe_size(); ++i) {
      (i < ring_size ? cfg.ring_members : cfg.spares)
          .push_back(acceptor_id(r, i));
    }
    return cfg;
  }

  // One LearnerOptions per listed ring, in order.
  std::vector<ringpaxos::LearnerOptions> LearnerGroups(
      const std::vector<int>& rings) const {
    std::vector<ringpaxos::LearnerOptions> out;
    for (int r : rings) {
      ringpaxos::LearnerOptions lo;
      lo.ring = Ring(r);
      out.push_back(std::move(lo));
    }
    return out;
  }

  // A learner (and each ring's own acceptors) joins data then control.
  std::vector<ChannelId> LearnerChannels(const std::vector<int>& rings) const {
    std::vector<ChannelId> out;
    for (int r : rings) {
      out.push_back(data_channel(r));
      out.push_back(control_channel(r));
    }
    return out;
  }

  // A client hears the coordinators' heartbeats on the control channels.
  std::vector<ChannelId> ClientChannels(const std::vector<int>& rings) const {
    std::vector<ChannelId> out;
    for (int r : rings) out.push_back(control_channel(r));
    return out;
  }
};

}  // namespace mrp::multiring
