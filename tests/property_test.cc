// Property-based sweeps (parameterized gtest) over the protocol
// invariants the paper's appendix argues for:
//
//  * uniform agreement / total order for Ring Paxos under loss,
//    duplication-inducing retransmissions and acceptor crashes;
//  * uniform partial order for Multi-Ring Paxos atomic multicast under
//    random subscription matrices, M values and loss;
//  * LCR total order across ring sizes and seeds;
//  * bit-for-bit determinism of the simulator.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "baselines/lcr.h"
#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"

namespace mrp {
namespace {

using multiring::DeploymentOptions;
using multiring::MergeLearner;
using multiring::SimDeployment;
using ringpaxos::ProposerConfig;

using DeliveryKey = std::tuple<GroupId, NodeId, std::uint64_t>;

struct Log {
  std::vector<DeliveryKey> entries;
};

MergeLearner* AddLearner(SimDeployment& d, const std::vector<int>& rings, Log& log,
                         std::uint32_t m, bool acks) {
  MergeLearner::Options mo;
  mo.m = m;
  mo.send_delivery_acks = acks;
  mo.on_deliver = [&log](GroupId g, const paxos::ClientMsg& msg) {
    log.entries.emplace_back(g, msg.proposer, msg.seq);
  };
  return d.AddMergeLearner(rings, std::move(mo));
}

// Atomic multicast with client retransmission is at-least-once: a lost
// acknowledgement makes the proposer resubmit, so the same message can
// be decided (and delivered) twice, at every learner in the same
// positions. Properties are therefore checked on first occurrences.
std::vector<DeliveryKey> Dedup(const Log& log) {
  std::vector<DeliveryKey> out;
  std::set<DeliveryKey> seen;
  for (const auto& key : log.entries) {
    if (seen.insert(key).second) out.push_back(key);
  }
  return out;
}

void ExpectPartialOrder(const Log& a, const Log& b, const char* what) {
  const auto da = Dedup(a);
  const auto db = Dedup(b);
  std::map<DeliveryKey, std::size_t> pos;
  for (std::size_t i = 0; i < db.size(); ++i) pos.emplace(db[i], i);
  std::size_t last = 0;
  bool first = true;
  for (const auto& key : da) {
    auto it = pos.find(key);
    if (it == pos.end()) continue;
    if (!first) {
      ASSERT_GE(it->second, last) << what << ": partial order violated";
    }
    first = false;
    last = it->second;
  }
}

// ---------------- Multi-Ring atomic multicast partial order ----------------

class MultiRingProperty
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint32_t>> {};

TEST_P(MultiRingProperty, UniformPartialOrderUnderLossAndM) {
  const auto [seed, loss, m] = GetParam();
  DeploymentOptions opts;
  opts.n_rings = 3;
  opts.net.seed = static_cast<std::uint64_t>(seed);
  opts.net.loss_probability = loss;
  opts.lambda_per_sec = 5000;
  SimDeployment d(opts);

  // Subscription matrix: overlapping subsets of the three groups.
  Log l01, l12, l02, l012, l012b;
  AddLearner(d, {0, 1}, l01, m, true);
  AddLearner(d, {1, 2}, l12, m, true);
  AddLearner(d, {0, 2}, l02, m, false);
  AddLearner(d, {0, 1, 2}, l012, m, false);
  AddLearner(d, {0, 1, 2}, l012b, m, false);

  for (int r = 0; r < 3; ++r) {
    ProposerConfig pc;
    pc.max_outstanding = 4;
    pc.payload_size = 3000;
    d.AddProposer(r, pc);
  }
  d.Start();
  d.RunFor(Seconds(2));

  ASSERT_GT(l012.entries.size(), 300u);
  // Same subscriptions => identical sequences (prefix; duplicates land
  // in the same positions because they are separate decided instances).
  const auto n = std::min(l012.entries.size(), l012b.entries.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(l012.entries[i], l012b.entries[i]) << "identical-subs diverged @" << i;
  }
  // Pairwise partial order on overlaps.
  ExpectPartialOrder(l01, l12, "l01-l12");
  ExpectPartialOrder(l12, l02, "l12-l02");
  ExpectPartialOrder(l01, l012, "l01-l012");
  ExpectPartialOrder(l02, l012, "l02-l012");
  ExpectPartialOrder(l12, l012, "l12-l012");
  // Per-proposer FIFO within each group holds on lossless runs; under
  // loss a dropped Submit is retransmitted later and may be ordered
  // after its successors (atomic multicast does not promise client
  // FIFO — only the consistent partial order checked above).
  if (loss == 0.0) {
    std::map<std::pair<GroupId, NodeId>, std::uint64_t> last;
    for (const auto& [g, p, seq] : Dedup(l012)) {
      auto& prev = last[{g, p}];
      ASSERT_GT(seq, prev) << "per-group FIFO violated";
      prev = seq;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiRingProperty,
    ::testing::Combine(::testing::Values(1, 7, 42),
                       ::testing::Values(0.0, 0.02),
                       ::testing::Values(1u, 10u)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_loss" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_m" + std::to_string(std::get<2>(info.param));
    });

// ---------------- Ring Paxos total order under crashes ----------------

class RingPaxosCrashProperty : public ::testing::TestWithParam<int> {};

TEST_P(RingPaxosCrashProperty, TotalOrderSurvivesCoordinatorCrashes) {
  DeploymentOptions opts;
  opts.net.seed = static_cast<std::uint64_t>(GetParam());
  opts.net.loss_probability = 0.01;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.lambda_per_sec = 0;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);

  Log a, b;
  AddLearner(d, {0}, a, 1, true);
  AddLearner(d, {0}, b, 1, false);
  ProposerConfig pc;
  pc.max_outstanding = 4;
  pc.payload_size = 2000;
  auto* prop = d.AddProposer(0, pc);
  d.Start();

  // Crash-and-revive schedule driven by the seed: each second, maybe
  // toggle one universe node (never allowing a majority to be down).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
  std::vector<bool> down(3, false);
  for (int t = 0; t < 6; ++t) {
    d.RunFor(Seconds(1));
    const int victim = static_cast<int>(rng.below(3));
    int down_count = 0;
    for (bool v : down) down_count += v ? 1 : 0;
    if (down[victim]) {
      down[victim] = false;
      d.acceptor_node(0, victim)->SetDown(false);
    } else if (down_count == 0) {  // keep a majority of the universe up
      down[victim] = true;
      d.acceptor_node(0, victim)->SetDown(true);
    }
  }
  for (int i = 0; i < 3; ++i) d.acceptor_node(0, i)->SetDown(false);
  d.RunFor(Seconds(4));

  ASSERT_GT(a.entries.size(), 100u);
  // Agreement: identical prefixes.
  const auto n = std::min(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.entries[i], b.entries[i]) << "learners diverged @" << i;
  }
  // Validity: every submitted message is delivered or still tracked for
  // retransmission (nothing silently lost).
  std::set<std::uint64_t> seen;
  for (const auto& [g, p, seq] : a.entries) seen.insert(seq);
  const auto inflight = prop->outstanding_seqs();
  const std::set<std::uint64_t> inflight_set(inflight.begin(), inflight.end());
  for (std::uint64_t s = 1; s <= prop->acked_seq(); ++s) {
    ASSERT_TRUE(seen.count(s) || inflight_set.count(s))
        << "seq " << s << " lost (not delivered, not outstanding)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingPaxosCrashProperty,
                         ::testing::Values(3, 11, 29, 63));

// ---------------- LCR total order ----------------

class LcrProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LcrProperty, TotalOrderAcrossRingSizes) {
  const auto [nodes, seed] = GetParam();
  sim::NetConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  sim::SimNetwork net(cfg);
  baselines::LcrConfig lc;
  lc.window = 3;
  lc.payload_size = 4000;
  std::vector<sim::SimNode*> ring;
  for (int i = 0; i < nodes; ++i) {
    auto& node = net.AddNode();
    lc.ring.push_back(node.self());
    ring.push_back(&node);
  }
  std::vector<std::vector<std::pair<NodeId, std::uint64_t>>> logs(
      static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    auto& log = logs[static_cast<std::size_t>(i)];
    ring[i]->BindProtocol(std::make_unique<baselines::LcrNode>(
        lc, [&log](const baselines::LcrData& m) { log.emplace_back(m.sender, m.seq); }));
  }
  net.StartAll();
  net.RunFor(Seconds(1));

  ASSERT_GT(logs[0].size(), 50u);
  for (int i = 1; i < nodes; ++i) {
    const auto n = std::min(logs[0].size(), logs[static_cast<std::size_t>(i)].size());
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(logs[0][j], logs[static_cast<std::size_t>(i)][j])
          << "node " << i << " diverged @" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LcrProperty,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8),
                                            ::testing::Values(1, 17)));

// ---------------- Simulator determinism ----------------

class DeterminismProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismProperty, IdenticalSeedsIdenticalRuns) {
  auto run = [&] {
    DeploymentOptions opts;
    opts.n_rings = 2;
    opts.net.seed = static_cast<std::uint64_t>(GetParam());
    opts.net.loss_probability = 0.05;
    SimDeployment d(opts);
    Log log;
    AddLearner(d, {0, 1}, log, 1, true);
    ProposerConfig pc;
    pc.max_outstanding = 8;
    pc.payload_size = 1500;
    pc.retry_timeout = Millis(100);
    d.AddProposer(0, pc);
    d.AddProposer(1, pc);
    d.Start();
    d.RunFor(Seconds(2));
    return log.entries;
  };
  const auto first = run();
  ASSERT_GT(first.size(), 50u);
  EXPECT_EQ(first, run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty, ::testing::Values(2, 19, 101));

}  // namespace
}  // namespace mrp
