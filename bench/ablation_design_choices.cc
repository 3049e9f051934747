// Ablations of the design choices DESIGN.md calls out:
//
//  A. Batch size (paper footnote 1: "we use batches of 8 kB as this
//     results in high throughput"): throughput of a single ring with
//     512 B client messages under 1/8/32 kB consensus batches.
//  B. Skip batching (Section IV-D: "the cost of executing any number of
//     skip instances is the same as the cost of executing a single skip
//     instance"): coordinator CPU and learner latency with batched vs
//     Algorithm-1-literal skips on an idle and a lightly loaded ring.
//  C. Ring size (Section IV-C: "to reduce response time, Ring Paxos
//     keeps f+1 acceptors in the ring only"): latency grows with each
//     in-ring acceptor, throughput stays coordinator-bound.
//  D. Groups-per-ring mapping (Section IV-D): two groups on dedicated
//     rings vs sharing one ring — the shared ring halves per-group
//     capacity and makes single-group learners pay for foreign traffic.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace mrp;         // NOLINT
using namespace mrp::bench;  // NOLINT
using multiring::DeploymentOptions;
using multiring::MergeLearner;
using multiring::SimDeployment;

void AblationBatchSize(Duration warm, Duration measure) {
  std::printf("\n[A] consensus batch size (512 B client messages)\n");
  std::printf("%-10s %12s %10s %12s %14s\n", "batch", "tput(Mbps)", "msg/s",
              "latency(ms)", "instances/s");
  for (std::size_t batch : {1024u, 8u * 1024u, 32u * 1024u}) {
    DeploymentOptions opts;
    opts.lambda_per_sec = 0;
    opts.batch_bytes = batch;
    SimDeployment d(opts);
    auto* learner = AddAckingLearner(d, {0});
    AddClosedLoopClients(d, 0, 48, 8, 512);
    d.Start();
    d.RunFor(warm);
    learner->stats(0).delivered.TakeWindow();
    learner->stats(0).latency.Reset();
    const auto inst_before = d.coordinator(0)->decided_instances();
    d.RunFor(measure);
    const auto w = learner->stats(0).delivered.TakeWindow();
    std::printf("%-10zu %12.1f %10.0f %12.2f %14.0f\n", batch, w.Mbps(measure),
                w.MsgPerSec(measure),
                Summarize(learner->stats(0).latency).trimmed_mean_ms,
                static_cast<double>(d.coordinator(0)->decided_instances() - inst_before) /
                    ToSeconds(measure));
  }
}

void AblationSkipBatching(Duration warm, Duration measure) {
  std::printf("\n[B] skip batching at lambda=9000/s (2 rings, light load)\n");
  std::printf("%-10s %12s %14s %12s %14s\n", "skips", "coordCPU%", "skipProps/s",
              "latency(ms)", "tput(Mbps)");
  for (bool batched : {true, false}) {
    DeploymentOptions opts;
    opts.n_rings = 2;
    opts.lambda_per_sec = 9000;
    opts.batch_skips = batched;
    SimDeployment d(opts);
    auto* learner = d.AddMergeLearner({0, 1});
    AddOpenLoopClient(d, 0, {{Seconds(0), 500.0}}, 8 * 1024);
    AddOpenLoopClient(d, 1, {{Seconds(0), 500.0}}, 8 * 1024);
    d.Start();
    d.RunFor(warm);
    d.coordinator_node(0)->TakeCpuUtilisation();
    const auto props_before = d.coordinator(0)->skip_proposals();
    for (std::size_t g = 0; g < 2; ++g) {
      learner->stats(g).delivered.TakeWindow();
      learner->stats(g).latency.Reset();
    }
    d.RunFor(measure);
    double mbps = 0;
    Histogram lat;
    for (std::size_t g = 0; g < 2; ++g) {
      mbps += learner->stats(g).delivered.TakeWindow().Mbps(measure);
      lat.Merge(learner->stats(g).latency);
    }
    std::printf("%-10s %12.1f %14.0f %12.2f %14.1f\n",
                batched ? "batched" : "literal",
                d.coordinator_node(0)->TakeCpuUtilisation() * 100,
                static_cast<double>(d.coordinator(0)->skip_proposals() - props_before) /
                    ToSeconds(measure),
                Summarize(lat).trimmed_mean_ms, mbps);
  }
}

void AblationRingSize(Duration warm, Duration measure) {
  std::printf("\n[C] in-ring acceptor count (f+1 = ring size)\n");
  std::printf("%-10s %18s %18s %16s\n", "ring", "lightLoadLat(ms)",
              "decideLat(ms)", "maxTput(Mbps)");
  for (int size : {2, 3, 4, 5}) {
    // Light load: latency reflects the ring traversal length — the
    // reason Ring Paxos keeps only f+1 acceptors in the ring.
    double light_lat = 0, decide_lat = 0, max_tput = 0;
    {
      DeploymentOptions opts;
      opts.lambda_per_sec = 0;
      opts.ring_size = size;
      SimDeployment d(opts);
      auto* learner = AddAckingLearner(d, {0});
      AddClosedLoopClients(d, 0, 2, 1, 8 * 1024);
      d.Start();
      d.RunFor(warm);
      learner->stats(0).latency.Reset();
      d.coordinator(0)->decide_latency().Reset();
      d.RunFor(measure);
      light_lat = Summarize(learner->stats(0).latency).trimmed_mean_ms;
      decide_lat = Summarize(d.coordinator(0)->decide_latency()).trimmed_mean_ms;
    }
    {
      DeploymentOptions opts;
      opts.lambda_per_sec = 0;
      opts.ring_size = size;
      SimDeployment d(opts);
      auto* learner = AddAckingLearner(d, {0});
      AddClosedLoopClients(d, 0, 48, 2, 8 * 1024);
      d.Start();
      d.RunFor(warm);
      learner->stats(0).delivered.TakeWindow();
      d.RunFor(measure);
      max_tput = learner->stats(0).delivered.TakeWindow().Mbps(measure);
    }
    std::printf("%-10d %18.2f %18.2f %16.1f\n", size, light_lat, decide_lat,
                max_tput);
  }
}

void AblationGroupMapping(Duration warm, Duration measure) {
  std::printf("\n[D] 2 groups: dedicated rings vs one shared ring\n");
  std::printf("%-12s %14s %16s %12s\n", "mapping", "total(Mbps)",
              "perGroup(Mbps)", "waste(msgs)");
  for (bool shared : {false, true}) {
    DeploymentOptions opts;
    opts.n_rings = shared ? 1 : 2;
    opts.lambda_per_sec = 0;
    SimDeployment d(opts);
    // One single-group subscriber per group.
    std::vector<MergeLearner*> learners;
    for (GroupId g = 0; g < 2; ++g) {
      learners.push_back(d.AddLearnerNode(
          {shared ? 0 : static_cast<int>(g)},
          [g](sim::SimNode&, std::vector<ringpaxos::LearnerOptions> groups) {
            MergeLearner::Options mo;
            mo.send_delivery_acks = true;
            groups[0].subscribe_only = {g};
            mo.groups = std::move(groups);
            return std::make_unique<MergeLearner>(std::move(mo));
          }));
    }
    for (GroupId g = 0; g < 2; ++g) {
      ringpaxos::ProposerConfig pc;
      pc.max_outstanding = 2;
      pc.payload_size = 8 * 1024;
      for (int c = 0; c < 24; ++c) {
        d.AddProposer(shared ? 0 : static_cast<int>(g), pc, g);
      }
    }
    d.Start();
    d.RunFor(warm);
    for (auto* l : learners) l->stats(0).delivered.TakeWindow();
    const std::uint64_t waste_before =
        learners[0]->stats(0).discarded + learners[1]->stats(0).discarded;
    d.RunFor(measure);
    double total = 0;
    for (auto* l : learners) {
      total += l->stats(0).delivered.TakeWindow().Mbps(measure);
    }
    const std::uint64_t waste = learners[0]->stats(0).discarded +
                                learners[1]->stats(0).discarded - waste_before;
    std::printf("%-12s %14.1f %16.1f %12llu\n", shared ? "shared" : "dedicated",
                total, total / 2, static_cast<unsigned long long>(waste));
  }
}

void AblationMulticast(Duration warm, Duration measure) {
  std::printf("\n[E] Phase 2A dissemination: ip-multicast vs unicast fanout\n");
  std::printf("%-10s %10s %14s %14s\n", "mode", "learners", "tput(Mbps)",
              "coordCPU%");
  for (bool unicast : {false, true}) {
    for (int learners : {1, 4, 8}) {
      // Hand-built deployment: the fanout target list must include the
      // learners, which SimDeployment only creates after the ring.
      sim::SimNetwork net;
      ringpaxos::RingConfig rc;
      rc.ring = 0;
      rc.group = 0;
      rc.data_channel = 0;
      rc.control_channel = 1;
      rc.lambda_per_sec = 0;
      std::vector<sim::SimNode*> acceptors;
      for (int i = 0; i < 2; ++i) {
        auto& node = net.AddNode();
        rc.ring_members.push_back(node.self());
        acceptors.push_back(&node);
      }
      std::vector<multiring::MergeLearner*> learner_protos;
      std::vector<NodeId> learner_ids;
      for (int l = 0; l < learners; ++l) {
        auto& node = net.AddNode();
        learner_ids.push_back(node.self());
        net.Subscribe(node.self(), rc.data_channel);
        net.Subscribe(node.self(), rc.control_channel);
        multiring::MergeLearner::Options mo;
        ringpaxos::LearnerOptions lo;
        lo.ring = rc;
        mo.groups.push_back(std::move(lo));
        mo.send_delivery_acks = (l == 0);
        auto proto = std::make_unique<multiring::MergeLearner>(std::move(mo));
        learner_protos.push_back(proto.get());
        node.BindProtocol(std::move(proto));
      }
      rc.unicast_fanout = unicast;
      if (unicast) {
        rc.fanout_targets = learner_ids;
        rc.fanout_targets.push_back(rc.ring_members[1]);
      }
      for (auto* node : acceptors) {
        node->BindProtocol(std::make_unique<ringpaxos::RingNode>(rc));
        net.Subscribe(node->self(), rc.data_channel);
        net.Subscribe(node->self(), rc.control_channel);
      }
      for (int c = 0; c < 48; ++c) {
        sim::NodeSpec spec;
        spec.infinite_cpu = true;
        auto& cnode = net.AddNode(spec);
        ringpaxos::ProposerConfig pc;
        pc.ring = 0;
        pc.coordinator = rc.ring_members[0];
        pc.max_outstanding = 2;
        pc.payload_size = 8 * 1024;
        cnode.BindProtocol(std::make_unique<ringpaxos::Proposer>(pc));
        net.Subscribe(cnode.self(), rc.control_channel);
      }
      net.StartAll();
      net.RunFor(warm);
      learner_protos[0]->stats(0).delivered.TakeWindow();
      acceptors[0]->TakeCpuUtilisation();
      net.RunFor(measure);
      const auto w = learner_protos[0]->stats(0).delivered.TakeWindow();
      std::printf("%-10s %10d %14.1f %14.1f\n", unicast ? "unicast" : "multicast",
                  learners, w.Mbps(measure),
                  acceptors[0]->TakeCpuUtilisation() * 100);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const Duration warm = quick ? Seconds(1) : Seconds(2);
  const Duration measure = quick ? Seconds(2) : Seconds(4);

  PrintHeader("Ablations - Ring Paxos / Multi-Ring Paxos design choices",
              "Batch size, skip batching, ring size, group-to-ring mapping.");
  AblationBatchSize(warm, measure);
  AblationSkipBatching(warm, measure);
  AblationRingSize(warm, measure);
  AblationGroupMapping(warm, measure);
  AblationMulticast(warm, measure);
  std::printf(
      "\nExpected: 8-32 kB batches beat 1 kB on throughput; literal skips\n"
      "burn coordinator CPU for no throughput gain; latency grows with\n"
      "ring size; the shared ring halves per-group capacity and makes\n"
      "single-group learners discard foreign messages; unicast fanout\n"
      "collapses as receivers are added while multicast stays flat.\n");
  return 0;
}
