// Quickstart: a single Ring Paxos instance (atomic broadcast) on the
// deterministic simulator. One coordinator + one acceptor, two learners,
// one client. Demonstrates the core public API:
//
//   RingConfig       - describes a ring (members, channels, parameters)
//   SimDeployment    - wires rings/learners/proposers onto the simulator
//   MergeLearner     - delivers the decided messages in total order (on
//                      one ring it is a single-ring learner)
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "multiring/sim_deployment.h"
#include "ringpaxos/proposer.h"

using namespace mrp;  // NOLINT

int main() {
  // A deployment with one ring of two acceptors (the first acts as the
  // coordinator), in-memory durability, skips disabled (plain atomic
  // broadcast).
  multiring::DeploymentOptions opts;
  opts.n_rings = 1;
  opts.ring_size = 2;
  opts.lambda_per_sec = 0;
  multiring::SimDeployment d(opts);

  // Two learners, each printing what it delivers: atomic broadcast
  // guarantees they print the identical sequence.
  for (int l = 0; l < 2; ++l) {
    multiring::MergeLearner::Options lo;
    lo.send_delivery_acks = (l == 0);
    lo.on_deliver = [l](GroupId, const paxos::ClientMsg& m) {
      std::printf("  learner %d delivered: proposer=%u seq=%llu (%u bytes)\n", l,
                  m.proposer, static_cast<unsigned long long>(m.seq),
                  m.payload_size);
    };
    d.AddMergeLearner({0}, std::move(lo));
  }

  // A closed-loop client broadcasting 1 kB messages, at most 2 in flight.
  ringpaxos::ProposerConfig pc;
  pc.max_outstanding = 2;
  pc.payload_size = 1024;
  auto* client = d.AddProposer(0, pc);

  std::printf("Running 50 ms of simulated time...\n");
  d.Start();
  d.RunFor(Millis(50));

  std::printf("client: %llu messages acknowledged\n",
              static_cast<unsigned long long>(client->acked_seq()));
  std::printf("coordinator: %llu consensus instances decided\n",
              static_cast<unsigned long long>(d.coordinator(0)->decided_instances()));
  return 0;
}
