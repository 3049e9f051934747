// Fault-tolerance demo: a ring of 2 acceptors plus a spare. We kill the
// coordinator mid-stream and watch the next universe member take over
// (multi-instance Phase 1, catch-up skip), then kill the surviving
// original acceptor and watch the spare get recruited into the ring.
// Throughput is reported around each event.
//
// Build & run:  ./build/examples/failover
#include <cstdio>

#include "multiring/sim_deployment.h"
#include "ringpaxos/proposer.h"

using namespace mrp;  // NOLINT

namespace {

void Report(multiring::SimDeployment& d, multiring::MergeLearner* learner,
            const char* phase) {
  const auto w = learner->stats(0).delivered.TakeWindow();
  const char* coord = "none";
  static const char* names[] = {"A0", "A1", "SPARE"};
  for (int i = 0; i < 3; ++i) {
    auto* rn = d.acceptor_node(0, i)->protocol_as<ringpaxos::RingNode>();
    if (rn->is_coordinator() && !d.acceptor_node(0, i)->down()) coord = names[i];
  }
  std::printf("%-28s tput=%7.1f Mbps  delivered=%6llu  coordinator=%s\n", phase,
              w.Mbps(Seconds(1)),
              static_cast<unsigned long long>(learner->total_delivered()),
              coord);
}

}  // namespace

int main() {
  multiring::DeploymentOptions opts;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.lambda_per_sec = 1000;
  opts.suspect_after = Millis(100);
  multiring::SimDeployment d(opts);

  multiring::MergeLearner::Options lo;
  lo.send_delivery_acks = true;
  auto* learner = d.AddMergeLearner({0}, std::move(lo));
  ringpaxos::ProposerConfig pc;
  pc.max_outstanding = 8;
  pc.payload_size = 8 * 1024;
  pc.retry_timeout = Millis(200);
  d.AddProposer(0, pc);
  d.Start();

  std::printf("ring: [A0 (coordinator), A1], spare: SPARE, f = 1\n\n");
  for (int s = 0; s < 2; ++s) {
    d.RunFor(Seconds(1));
    Report(d, learner, "steady state");
  }

  std::printf("\n>>> killing A0 (the coordinator)\n");
  d.coordinator_node(0)->SetDown(true);
  for (int s = 0; s < 3; ++s) {
    d.RunFor(Seconds(1));
    Report(d, learner, s == 0 ? "fail-over in progress" : "recovered");
  }

  std::printf("\n>>> killing A1 too: 2 of 3 universe members down, NO majority\n"
              ">>> remains. Safety demands a stall — nothing may be decided.\n");
  d.acceptor_node(0, 1)->SetDown(true);
  for (int s = 0; s < 3; ++s) {
    d.RunFor(Seconds(1));
    Report(d, learner, "stalled (no majority)");
  }

  std::printf("\n>>> reviving A0: majority restored, SPARE completes Phase 1\n");
  d.coordinator_node(0)->SetDown(false);
  for (int s = 0; s < 3; ++s) {
    d.RunFor(Seconds(1));
    Report(d, learner, "majority restored");
  }
  return 0;
}
