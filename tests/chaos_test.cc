// Chaos soak: a Multi-Ring deployment under simultaneous message loss,
// repeated acceptor/coordinator crash-revive cycles and a learner
// restart, sweeping seeds. The safety net at the end: learners with the
// same subscriptions delivered identical sequences, overlapping
// subscriptions kept a consistent partial order, and no acknowledged
// message was lost.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"

namespace mrp {
namespace {

using multiring::DeploymentOptions;
using multiring::MergeLearner;
using multiring::SimDeployment;
using ringpaxos::ProposerConfig;

using Key = std::tuple<GroupId, NodeId, std::uint64_t>;

struct Log {
  std::vector<Key> entries;
};

MergeLearner* AddLearner(SimDeployment& d, const std::vector<int>& rings, Log& log,
                         bool acks, std::vector<sim::SimNode*>* nodes = nullptr) {
  MergeLearner::Options mo;
  mo.send_delivery_acks = acks;
  mo.on_deliver = [&log](GroupId g, const paxos::ClientMsg& m) {
    log.entries.emplace_back(g, m.proposer, m.seq);
  };
  return d.AddLearnerNode(
      rings, [&](sim::SimNode& node,
                 std::vector<ringpaxos::LearnerOptions> groups) {
        if (nodes != nullptr) nodes->push_back(&node);
        mo.groups = std::move(groups);
        return std::make_unique<MergeLearner>(std::move(mo));
      });
}

std::vector<Key> Dedup(const Log& log) {
  std::vector<Key> out;
  std::set<Key> seen;
  for (const auto& k : log.entries) {
    if (seen.insert(k).second) out.push_back(k);
  }
  return out;
}

class ChaosSoak : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSoak, SafetyHoldsUnderCrashLossAndChurn) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.ring_size = 2;
  opts.n_spares = 1;
  opts.net.seed = seed;
  opts.net.loss_probability = 0.01;
  opts.lambda_per_sec = 4000;
  opts.suspect_after = Millis(50);
  SimDeployment d(opts);

  Log both_a, both_b, only0;
  std::vector<sim::SimNode*> learner_nodes;
  auto* la = AddLearner(d, {0, 1}, both_a, /*acks=*/true, &learner_nodes);
  AddLearner(d, {0, 1}, both_b, false, &learner_nodes);
  AddLearner(d, {0}, only0, false, &learner_nodes);

  std::vector<ringpaxos::Proposer*> props;
  for (int r = 0; r < 2; ++r) {
    ProposerConfig pc;
    pc.max_outstanding = 6;
    pc.payload_size = 2500;
    pc.retry_timeout = Millis(150);
    props.push_back(d.AddProposer(r, pc));
  }
  d.Start();

  // 8 seconds of churn: every 500 ms toggle a random acceptor of a
  // random ring (keeping universe majorities), occasionally bounce the
  // non-acking learner.
  Rng rng(seed * 7919 + 1);
  std::vector<std::vector<bool>> down(2, std::vector<bool>(3, false));
  for (int step = 0; step < 16; ++step) {
    d.RunFor(Millis(500));
    const int ring = static_cast<int>(rng.below(2));
    const int victim = static_cast<int>(rng.below(3));
    auto& flags = down[static_cast<std::size_t>(ring)];
    int down_count = 0;
    for (bool v : flags) down_count += v ? 1 : 0;
    if (flags[static_cast<std::size_t>(victim)]) {
      flags[static_cast<std::size_t>(victim)] = false;
      d.acceptor_node(ring, victim)->SetDown(false);
    } else if (down_count == 0) {
      flags[static_cast<std::size_t>(victim)] = true;
      d.acceptor_node(ring, victim)->SetDown(true);
    }
    if (step == 7) {
      // Bounce a learner mid-run; it must rejoin via recovery.
      learner_nodes[1]->SetDown(true);
    }
    if (step == 9) learner_nodes[1]->SetDown(false);
  }
  // Quiesce: revive everything, drain retries.
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < 3; ++i) d.acceptor_node(r, i)->SetDown(false);
  }
  d.RunFor(Seconds(5));

  ASSERT_GT(both_a.entries.size(), 500u) << "no progress under churn";

  // Uniform agreement on identical subscriptions (the bounced learner's
  // log is a sub-sequence; compare deduped common prefix consistency).
  const auto da = Dedup(both_a);
  const auto db = Dedup(both_b);
  std::map<Key, std::size_t> pos;
  for (std::size_t i = 0; i < da.size(); ++i) pos.emplace(da[i], i);
  std::size_t last = 0;
  bool first = true;
  for (const auto& k : db) {
    auto it = pos.find(k);
    ASSERT_NE(it, pos.end()) << "learner B delivered something A never did";
    if (!first) {
      ASSERT_GE(it->second, last) << "order diverged";
    }
    first = false;
    last = it->second;
  }
  // Partial order against the single-group learner.
  std::map<Key, std::size_t> pos0;
  const auto d0 = Dedup(only0);
  for (std::size_t i = 0; i < d0.size(); ++i) pos0.emplace(d0[i], i);
  last = 0;
  first = true;
  for (const auto& k : da) {
    auto it = pos0.find(k);
    if (it == pos0.end()) continue;
    if (!first) {
      ASSERT_GE(it->second, last) << "partial order diverged";
    }
    first = false;
    last = it->second;
  }
  // Validity: acked messages were delivered (or still tracked).
  for (std::size_t p = 0; p < props.size(); ++p) {
    std::set<std::uint64_t> seen;
    for (const auto& [g, pr, seq] : both_a.entries) {
      if (g == static_cast<GroupId>(p)) seen.insert(seq);
    }
    const auto inflight = props[p]->outstanding_seqs();
    const std::set<std::uint64_t> inflight_set(inflight.begin(), inflight.end());
    for (std::uint64_t s = 1; s <= props[p]->acked_seq(); ++s) {
      ASSERT_TRUE(seen.count(s) || inflight_set.count(s))
          << "ring " << p << " seq " << s << " lost";
    }
  }
  (void)la;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak, ::testing::Values(5, 23, 71, 137));

}  // namespace
}  // namespace mrp
