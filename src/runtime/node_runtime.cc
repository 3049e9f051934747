#include "runtime/node_runtime.h"

#include <condition_variable>
#include <mutex>

#include "ringpaxos/ring_node.h"
#include "runtime/file_storage.h"

namespace mrp::runtime {

namespace {

// Self-rearming compaction tick; lives on the loop via the captured Env.
void CompactionTick(NodeRuntime& node, FileStorage& storage, Duration interval,
                    std::uint64_t min_bytes) {
  node.SetTimer(interval, [&node, &storage, interval, min_bytes] {
    storage.MaybeCompact(min_bytes);
    CompactionTick(node, storage, interval, min_bytes);
  });
}

}  // namespace

void NodeRuntime::EnableLogCompaction(FileStorage& storage, Duration interval,
                                      std::uint64_t min_bytes) {
  loop_.Post([this, &storage, interval, min_bytes] {
    CompactionTick(*this, storage, interval, min_bytes);
  });
}

void NodeRuntime::RunOnLoop(std::function<void()> fn) {
  if (loop_.on_loop_thread()) {
    fn();
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  loop_.Post([&] {
    fn();
    std::scoped_lock lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return done; });
}

LocalCluster::LocalCluster(multiring::DeploymentSpec spec, Kind kind,
                           UdpConfig udp)
    : spec_(std::move(spec)), kind_(kind), udp_cfg_(std::move(udp)) {
  for (int r = 0; r < spec_.n_rings; ++r) {
    for (int i = 0; i < spec_.universe_size(); ++i) {
      AddNode(std::make_unique<ringpaxos::RingNode>(spec_.Ring(r)),
              spec_.LearnerChannels({r}));
    }
  }
}

ringpaxos::Proposer* LocalCluster::AddProposer(int idx,
                                               ringpaxos::ProposerConfig cfg) {
  const auto rc = spec_.Ring(idx);
  cfg.ring = rc.ring;
  cfg.group = rc.group;
  cfg.coordinator = rc.ring_members[0];
  auto proposer = std::make_unique<ringpaxos::Proposer>(cfg);
  auto* raw = proposer.get();
  AddClient(std::move(proposer), {idx});
  return raw;
}

NodeId LocalCluster::AddNode(std::unique_ptr<Protocol> protocol,
                             const std::vector<ChannelId>& subscriptions) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Transport* transport = nullptr;
  if (kind_ == Kind::kInProc) {
    auto& ep = bus_.AddEndpoint(id);
    for (ChannelId ch : subscriptions) ep.Subscribe(ch);
    transport = &ep;
  } else {
    udp_.push_back(std::make_unique<UdpTransport>(id, udp_cfg_));
    for (ChannelId ch : subscriptions) udp_.back()->Subscribe(ch);
    transport = udp_.back().get();
  }
  nodes_.push_back(std::make_unique<NodeRuntime>(id, std::move(protocol), *transport));
  return id;
}

void LocalCluster::Start() {
  if (started_) return;
  started_ = true;
  for (auto& udp : udp_) udp->Start();
  for (auto& node : nodes_) node->Start();
}

void LocalCluster::Stop() {
  if (!started_) return;
  started_ = false;
  for (auto& node : nodes_) node->Stop();
  for (auto& udp : udp_) udp->Stop();
}

}  // namespace mrp::runtime
