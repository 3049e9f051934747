// Real-deployment node: runs Multi-Ring Paxos over UDP with genuine
// ip-multicast. A cluster file (format in src/runtime/cluster_config.h)
// describes the rings and the learner and proposer roles; every node id
// and role is derived from it. Launch one process per node id to form a
// cluster on a LAN (or on loopback):
//
//   ./mrp_node --config examples/cluster.cfg --id <N> [--seconds S]
//
// A learner process exits non-zero when it delivered nothing.
//
// With no arguments it runs a self-contained demo: a built-in 2-ring
// cluster file run on a LocalCluster, every node a separate UDP endpoint
// inside this one process (same sockets and codec a distributed
// deployment uses), for three seconds. It exits non-zero when nothing
// was delivered.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "multiring/merge_learner.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"
#include "runtime/cluster_config.h"
#include "runtime/node_runtime.h"

using namespace mrp;  // NOLINT
using runtime::ClusterConfig;

namespace {

constexpr char kDemoConfig[] = R"(
udp base_port 48100 mcast_prefix 239.255.83. mcast_port 48600
ring 0 members 2 lambda 1000
ring 1 members 2 lambda 1000
node learner 0,1 acks
node proposer 0
node proposer 1
)";

// The merge learner of a learner role, counting into `delivered`.
multiring::MergeLearner::Options MergeOptionsFor(
    const ClusterConfig::LearnerRole& role,
    std::atomic<std::uint64_t>& delivered) {
  multiring::MergeLearner::Options mo;
  mo.send_delivery_acks = role.acks;
  mo.on_deliver = [&delivered](GroupId g, const paxos::ClientMsg& m) {
    const auto n = ++delivered;
    if (n % 1000 == 0) {
      std::printf("  delivered %llu messages (latest: group %u seq %llu)\n",
                  static_cast<unsigned long long>(n), g,
                  static_cast<unsigned long long>(m.seq));
    }
  };
  return mo;
}

// The workload of a proposer role; the ring binding is filled by the
// caller.
ringpaxos::ProposerConfig ProposerConfigFor(
    const ClusterConfig::ProposerRole& role) {
  ringpaxos::ProposerConfig pc;
  pc.payload_size = role.payload;
  pc.max_outstanding = role.window;
  if (role.rate > 0) pc.schedule = {{Seconds(0), role.rate}};
  return pc;
}

// Config-file mode: this process runs node `id` of the file's cluster.
int RunNode(const ClusterConfig& cfg, NodeId id, int seconds) {
  const auto& spec = cfg.spec;
  const auto ring_nodes = static_cast<NodeId>(spec.ring_node_count());
  std::atomic<std::uint64_t> delivered{0};
  bool learner = false;
  std::unique_ptr<Protocol> protocol;
  std::vector<ChannelId> channels;
  if (const int r = spec.acceptor_ring(id); r >= 0) {
    protocol = std::make_unique<ringpaxos::RingNode>(spec.Ring(r));
    channels = spec.LearnerChannels({r});
    std::printf("node %u: acceptor of ring %d\n", id, r);
  } else if (id - ring_nodes < cfg.roles.size()) {
    const auto& role = cfg.roles[id - ring_nodes];
    if (const auto* lr = std::get_if<ClusterConfig::LearnerRole>(&role)) {
      auto mo = MergeOptionsFor(*lr, delivered);
      mo.groups = spec.LearnerGroups(lr->rings);
      protocol = std::make_unique<multiring::MergeLearner>(std::move(mo));
      channels = spec.LearnerChannels(lr->rings);
      learner = true;
      std::printf("node %u: learner of %zu groups\n", id, lr->rings.size());
    } else {
      const auto& pr = std::get<ClusterConfig::ProposerRole>(role);
      const auto rc = spec.Ring(pr.ring);
      auto pc = ProposerConfigFor(pr);
      pc.ring = rc.ring;
      pc.group = rc.group;
      pc.coordinator = rc.ring_members[0];
      protocol = std::make_unique<ringpaxos::Proposer>(pc);
      channels = spec.ClientChannels({pr.ring});
      std::printf("node %u: proposer on ring %d\n", id, pr.ring);
    }
  } else {
    std::fprintf(stderr, "node %u not in config (it has %zu nodes)\n", id,
                 ring_nodes + cfg.roles.size());
    return 2;
  }

  runtime::UdpTransport transport(id, cfg.udp);
  for (ChannelId ch : channels) transport.Subscribe(ch);
  runtime::NodeRuntime node(id, std::move(protocol), transport);
  transport.Start();
  node.Start();
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  node.Stop();
  transport.Stop();
  if (!learner) return 0;
  std::printf("node %u: delivered %llu messages\n", id,
              static_cast<unsigned long long>(delivered.load()));
  return delivered.load() > 0 ? 0 : 1;
}

// Demo mode: the whole built-in cluster on one LocalCluster over UDP.
int RunDemo() {
  std::printf("mrp_node demo: 2 rings x 2 acceptors + merge learner + 2\n"
              "proposers, every node a separate UDP endpoint with real\n"
              "ip-multicast on loopback. Running for 3 seconds...\n\n");
  std::string error;
  const auto cfg = ClusterConfig::Parse(kDemoConfig, &error);
  if (!cfg) {
    std::fprintf(stderr, "demo config error: %s\n", error.c_str());
    return 2;
  }
  runtime::LocalCluster cluster(cfg->spec, runtime::LocalCluster::Kind::kUdp,
                                cfg->udp);
  std::atomic<std::uint64_t> delivered{0};
  for (const auto& role : cfg->roles) {
    if (const auto* lr = std::get_if<ClusterConfig::LearnerRole>(&role)) {
      cluster.AddMergeLearner(lr->rings, MergeOptionsFor(*lr, delivered));
    } else {
      const auto& pr = std::get<ClusterConfig::ProposerRole>(role);
      cluster.AddProposer(pr.ring, ProposerConfigFor(pr));
    }
  }

  cluster.Start();
  std::this_thread::sleep_for(std::chrono::seconds(3));
  cluster.Stop();
  std::printf("\ndemo done: %llu messages atomically multicast over UDP.\n",
              static_cast<unsigned long long>(delivered.load()));
  return delivered.load() > 0 ? 0 : 1;
}

// A whole-token integer argument in [0, max], or -1.
long ParseArg(const char* s, long max) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  return end != s && *end == '\0' && v >= 0 && v <= max ? v : -1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return RunDemo();
  std::string path;
  long id = -1;
  long seconds = 30;
  bool ok = argc % 2 == 1;
  for (int i = 1; ok && i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--config") path = argv[i + 1];
    else if (flag == "--id") id = ParseArg(argv[i + 1], 65535);
    else if (flag == "--seconds") seconds = ParseArg(argv[i + 1], 1'000'000);
    else ok = false;
  }
  if (!ok || path.empty() || id < 0 || seconds < 0) {
    std::fprintf(stderr,
                 "usage: mrp_node --config <file> --id <node> [--seconds n]\n"
                 "       mrp_node            (self-contained demo)\n");
    return 2;
  }
  std::string error;
  const auto cfg = ClusterConfig::Load(path, &error);
  if (!cfg) {
    std::fprintf(stderr, "config error: %s\n", error.c_str());
    return 2;
  }
  return RunNode(*cfg, static_cast<NodeId>(id), static_cast<int>(seconds));
}
