// Cluster configuration file for real deployments: a small line-based
// format that describes a multiring::DeploymentSpec plus the learner
// and proposer roles that run on it. Format (comments with '#', one
// directive per line):
//
//   ring <r> members <n> [spares <n>] [lambda <msgs/s>]
//   node learner <r>[,<r>...] [acks]
//   node proposer <r> [rate <msg/s>] [window <n>] [size <bytes>]
//   udp base_port <port> mcast_prefix <a.b.c.> mcast_port <port> [iface <ip>]
//
// Rings are listed in order from 0 and share one layout (the same member
// and spare counts); a ring without `lambda` runs plain Ring Paxos. No
// node id is written down: the spec derives them. Ring r's members and
// then its spares come first, ring by ring, from id 0; the `node` lines
// follow in file order. See examples/cluster.cfg for a complete cluster.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "multiring/deployment_spec.h"
#include "runtime/udp.h"

namespace mrp::runtime {

struct ClusterConfig {
  struct LearnerRole {
    std::vector<int> rings;
    bool acks = false;
  };
  struct ProposerRole {
    int ring = 0;
    double rate = 0;  // 0 = closed loop
    std::size_t window = 4;
    std::uint32_t payload = 1024;
  };
  using Role = std::variant<LearnerRole, ProposerRole>;

  multiring::DeploymentSpec spec;
  // roles[i] runs on node spec.ring_node_count() + i.
  std::vector<Role> roles;
  UdpConfig udp;

  // Parses the file; returns nullopt and fills `error` on malformed
  // input.
  static std::optional<ClusterConfig> Load(const std::string& path,
                                           std::string* error);
  static std::optional<ClusterConfig> Parse(const std::string& text,
                                            std::string* error);
};

}  // namespace mrp::runtime
