// Tests for the WAN topology subsystem (sim/topology.h) and its
// integration with SimNetwork and SimDeployment: deterministic routing
// and per-link latency accounting, multicast charged once per crossed
// link, per-link loss/drop counters, inter-site fault injection (a
// partition stalls only quorum-losing rings), geo placement, per-group
// merge quotas M_g and latency compensation (Stretching M-RP).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "multiring/sim_deployment.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace mrp::sim {
namespace {

using multiring::DeploymentOptions;
using multiring::MergeLearner;
using multiring::SimDeployment;
using ringpaxos::ProposerConfig;

LinkSpec Wan(Duration latency) {
  LinkSpec s;
  s.latency = latency;
  s.jitter = Duration{0};
  return s;
}

// ---- TopologyRuntime unit tests (no SimNetwork) ----

TEST(Topology, TrivialAndSiteCounts) {
  Topology t;
  EXPECT_TRUE(t.trivial());
  EXPECT_EQ(t.site_count(), 1u);
  const SiteId a = t.AddSite("a");
  EXPECT_FALSE(t.trivial());
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(t.AddSite("b"), 1u);
  EXPECT_EQ(t.site_count(), 2u);
  EXPECT_EQ(t.site_name(1), "b");
}

TEST(TopologyRuntime, ChainAccumulatesPerHopSerializationAndLatency) {
  // 1250 wire bytes at 10 Gbps = 1000 ns serialization per hop.
  auto topo = Topology::Chain({"a", "b", "c"}, Wan(Millis(10)));
  MetricsRegistry reg;
  TopologyRuntime rt(topo, reg, /*default_loss=*/0.0);
  Rng rng(1);

  auto t1 = rt.Traverse(0, 2, TimePoint{0}, 1250, rng);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(*t1, TimePoint{0} + 2 * (Millis(10) + Duration(1000)));

  // Back-to-back packets queue behind the first hop's serialization.
  auto t2 = rt.Traverse(0, 2, TimePoint{0}, 1250, rng);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(*t2 - *t1, Duration(1000));

  EXPECT_EQ(reg.counter("net.link.a->b.tx_pkts").value(), 2u);
  EXPECT_EQ(reg.counter("net.link.b->c.tx_pkts").value(), 2u);
  EXPECT_EQ(reg.counter("net.link.a->b.tx_bytes").value(), 2500u);
}

TEST(TopologyRuntime, TreeChargesSharedLinkOnce) {
  auto topo = Topology::Chain({"a", "b", "c"}, Wan(Millis(10)));
  MetricsRegistry reg;
  TopologyRuntime rt(topo, reg, 0.0);
  Rng rng(1);

  auto fab = rt.TraverseTree(0, {1, 2}, TimePoint{0}, 1250, rng);
  ASSERT_EQ(fab.size(), 2u);
  EXPECT_EQ(fab.at(1), TimePoint{0} + Millis(10) + Duration(1000));
  EXPECT_EQ(fab.at(2), fab.at(1) + Millis(10) + Duration(1000));
  // Both destinations sit behind a->b, yet it carried one packet.
  EXPECT_EQ(reg.counter("net.link.a->b.tx_pkts").value(), 1u);
  EXPECT_EQ(reg.counter("net.link.b->c.tx_pkts").value(), 1u);
}

TEST(TopologyRuntime, LinkDownReroutesThenDropsWhenIsolated) {
  Topology topo;
  const SiteId a = topo.AddSite("a");
  const SiteId b = topo.AddSite("b");
  const SiteId c = topo.AddSite("c");
  topo.Connect(a, b, Wan(Millis(10)));
  topo.Connect(a, c, Wan(Millis(10)));
  topo.Connect(c, b, Wan(Millis(10)));
  MetricsRegistry reg;
  TopologyRuntime rt(topo, reg, 0.0);
  Rng rng(1);

  auto direct = rt.Traverse(a, b, TimePoint{0}, 1250, rng);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(*direct, TimePoint{0} + Millis(10) + Duration(1000));

  // Fail a<->b: traffic detours deterministically through c.
  rt.SetLinkUp(a, b, false);
  EXPECT_FALSE(rt.LinkUp(a, b));
  EXPECT_EQ(reg.gauge("net.link.a->b.up").value(), 0);
  auto detour = rt.Traverse(a, b, TimePoint{0}, 1250, rng);
  ASSERT_TRUE(detour.has_value());
  EXPECT_EQ(*detour, TimePoint{0} + 2 * (Millis(10) + Duration(1000)));

  // Also fail a<->c: b is unreachable, packets are dropped and counted.
  rt.SetLinkUp(a, c, false);
  EXPECT_FALSE(rt.Traverse(a, b, TimePoint{0}, 1250, rng).has_value());
  EXPECT_GE(rt.total_drops(), 1u);

  // Heal: the direct route comes back.
  rt.SetLinkUp(a, b, true);
  EXPECT_TRUE(rt.LinkUp(a, b));
  EXPECT_EQ(reg.gauge("net.link.a->b.up").value(), 1);
  auto healed = rt.Traverse(a, b, TimePoint{10}, 1250, rng);
  ASSERT_TRUE(healed.has_value());
  EXPECT_LT(*healed, *detour + Duration(10));
}

TEST(TopologyRuntime, UnroutablePacketsAreCounted) {
  Topology topo;
  topo.AddSite("a");
  topo.AddSite("island");
  MetricsRegistry reg;
  TopologyRuntime rt(topo, reg, 0.0);
  Rng rng(1);
  EXPECT_FALSE(rt.Traverse(0, 1, TimePoint{0}, 100, rng).has_value());
  EXPECT_EQ(reg.counter("net.topo.unroutable_pkts").value(), 1u);
}

TEST(TopologyRuntime, PerLinkLossAndShorthandDefaultLoss) {
  // Explicit per-link loss.
  {
    Topology topo;
    auto spec = Wan(Millis(1));
    spec.loss = 1.0;
    const SiteId a = topo.AddSite("a");
    topo.Connect(a, topo.AddSite("b"), spec);
    MetricsRegistry reg;
    TopologyRuntime rt(topo, reg, 0.0);
    Rng rng(1);
    EXPECT_FALSE(rt.Traverse(0, 1, TimePoint{0}, 100, rng).has_value());
    EXPECT_EQ(reg.counter("net.link.a->b.dropped_loss").value(), 1u);
  }
  // Legacy loss_probability acts as the shorthand for links left at 0.
  {
    Topology topo;
    const SiteId a = topo.AddSite("a");
    topo.Connect(a, topo.AddSite("b"), Wan(Millis(1)));
    MetricsRegistry reg;
    TopologyRuntime rt(topo, reg, /*default_loss=*/1.0);
    Rng rng(1);
    EXPECT_FALSE(rt.Traverse(0, 1, TimePoint{0}, 100, rng).has_value());
    EXPECT_EQ(reg.counter("net.link.a->b.dropped_loss").value(), 1u);
  }
}

// ---- SimNetwork integration ----

struct TestMsg final : MessageBase {
  std::size_t size;
  int tag;
  explicit TestMsg(std::size_t s, int t = 0) : size(s), tag(t) {}
  std::size_t WireSize() const override { return size; }
  static constexpr MessageType kType{0, "test.Msg"};
  const MessageType& type() const override { return kType; }
};

class Recorder final : public Protocol {
 public:
  void OnStart(Env&) override {}
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override {
    received.push_back({from, env.now(), Cast<TestMsg>(m)->tag});
  }
  struct Rx {
    NodeId from;
    TimePoint at;
    int tag;
  };
  std::vector<Rx> received;
};

// Jitter-free spec so arrival times are exactly predictable.
NodeSpec QuietSpec() {
  NodeSpec s;
  s.link_jitter = Duration{0};
  s.cpu_jitter = 0;
  return s;
}

TEST(SimNetworkTopology, CrossSiteLegPaysConfiguredLinkLatency) {
  NetConfig cfg;
  Topology topo;
  const SiteId sa = topo.AddSite("A");
  const SiteId sb = topo.AddSite("B");
  topo.Connect(sa, sb, Wan(Millis(25)));
  cfg.topology = topo;
  SimNetwork net(cfg);

  auto& snd = net.AddNode(QuietSpec(), sa);
  auto& local = net.AddNode(QuietSpec(), sa);
  auto& remote = net.AddNode(QuietSpec(), sb);
  auto* rl = new Recorder();
  auto* rr = new Recorder();
  local.BindProtocol(std::unique_ptr<Protocol>(rl));
  remote.BindProtocol(std::unique_ptr<Protocol>(rr));
  net.Subscribe(local.self(), 5);
  net.Subscribe(remote.self(), 5);
  net.StartAll();

  snd.Execute(Duration{0},
                [&] { snd.Multicast(5, MakeMessage<TestMsg>(1000, 1)); });
  net.RunFor(Millis(100));

  ASSERT_EQ(rl->received.size(), 1u);
  ASSERT_EQ(rr->received.size(), 1u);
  // Identical legs except the WAN hop: 25 ms propagation plus the
  // backbone serialization of 1050 wire bytes at 10 Gbps = 840 ns.
  EXPECT_EQ(rr->received[0].at - rl->received[0].at,
            Millis(25) + Duration(840));
}

TEST(SimNetworkTopology, MulticastChargesCrossedLinkOncePerPacket) {
  NetConfig cfg;
  Topology topo;
  const SiteId sa = topo.AddSite("A");
  const SiteId sb = topo.AddSite("B");
  topo.Connect(sa, sb, Wan(Millis(5)));
  cfg.topology = topo;
  SimNetwork net(cfg);

  auto& snd = net.AddNode(QuietSpec(), sa);
  std::vector<Recorder*> recs;
  for (int i = 0; i < 3; ++i) {
    auto& n = net.AddNode(QuietSpec(), sb);
    auto* r = new Recorder();
    n.BindProtocol(std::unique_ptr<Protocol>(r));
    net.Subscribe(n.self(), 9);
    recs.push_back(r);
  }
  net.StartAll();
  snd.Execute(Duration{0},
                [&] { snd.Multicast(9, MakeMessage<TestMsg>(1000, 2)); });
  net.RunFor(Millis(100));

  for (auto* r : recs) ASSERT_EQ(r->received.size(), 1u);
  // One packet crossed the WAN link; the remote switch fanned it out.
  EXPECT_EQ(net.metrics().counter("net.link.A->B.tx_pkts").value(), 1u);
  EXPECT_EQ(net.metrics().counter("net.multicast_legs").value(), 3u);
}

TEST(SimNetworkTopology, AccessLinkLossDropsAndCounts) {
  SimNetwork net;  // trivial topology: access loss works without sites
  auto& snd = net.AddNode(QuietSpec());
  auto spec = QuietSpec();
  spec.link_loss = 1.0;
  auto& lossy = net.AddNode(spec);
  auto& clean = net.AddNode(QuietSpec());
  auto* rl = new Recorder();
  auto* rc = new Recorder();
  lossy.BindProtocol(std::unique_ptr<Protocol>(rl));
  clean.BindProtocol(std::unique_ptr<Protocol>(rc));
  net.StartAll();

  snd.Execute(Duration{0}, [&] {
    snd.Send(lossy.self(), MakeMessage<TestMsg>(100, 1));
    snd.Send(clean.self(), MakeMessage<TestMsg>(100, 2));
  });
  net.RunFor(Millis(10));

  EXPECT_TRUE(rl->received.empty());
  ASSERT_EQ(rc->received.size(), 1u);
  EXPECT_EQ(net.metrics().counter("net.access_link_drops").value(), 1u);
  EXPECT_EQ(net.metrics().counter("net.dropped_pkts").value(), 1u);
}

// ---- Geo deployments (SimDeployment) ----

ProposerConfig OpenLoop(double rate, std::uint32_t payload = 8 * 1024) {
  ProposerConfig cfg;
  cfg.schedule = {{Seconds(0), rate}};
  cfg.payload_size = payload;
  return cfg;
}

DeploymentOptions ThreeSiteOptions(std::uint64_t seed) {
  DeploymentOptions opts;
  opts.n_rings = 3;
  opts.net.seed = seed;
  opts.net.topology =
      Topology::FullMesh({"eu", "us", "asia"}, Wan(Millis(15)));
  opts.ring_sites = {0, 1, 2};
  return opts;
}

TEST(GeoDeployment, ThreeSiteDoubleRunIsByteIdentical) {
  auto run = [] {
    SimDeployment d(ThreeSiteOptions(42));
    d.AddMergeLearner({0, 1, 2});
    for (int r = 0; r < 3; ++r) d.AddProposer(r, OpenLoop(300, 1024));
    d.Start();
    d.RunFor(Millis(500));
    std::ostringstream os;
    d.net().WriteMetricsJson(os);
    return os.str();
  };
  EXPECT_EQ(run(), run());
}

TEST(GeoDeployment, PerSiteLatencySeparationTracksConfiguredRtt) {
  DeploymentOptions opts;
  opts.n_rings = 1;
  opts.net.seed = 9;
  Topology topo;
  const SiteId site_a = topo.AddSite("A");
  topo.Connect(site_a, topo.AddSite("B"), Wan(Millis(15)));
  opts.net.topology = topo;
  opts.ring_sites = {0};
  SimDeployment d(opts);
  auto* ln = d.AddMergeLearner({0}, {}, /*site=*/0);
  auto* lf = d.AddMergeLearner({0}, {}, /*site=*/1);
  d.AddProposer(0, OpenLoop(300, 1024));
  d.Start();
  d.RunFor(Seconds(1));

  ASSERT_GT(ln->total_delivered(), 100u);
  ASSERT_GT(lf->total_delivered(), 100u);
  const double sep = lf->stats(0).latency.TrimmedMean(0.05) -
                     ln->stats(0).latency.TrimmedMean(0.05);
  // The remote learner's extra latency is the one-way WAN hop (15 ms)
  // plus backbone serialization/queueing.
  EXPECT_GT(sep, 13e6);
  EXPECT_LT(sep, 25e6);
}

TEST(GeoDeployment, HeterogeneousSiteAndPerNodeSpecs) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  Topology topo;
  const SiteId site_a = topo.AddSite("A");
  topo.Connect(site_a, topo.AddSite("B"), Wan(Millis(10)));
  opts.net.topology = topo;
  opts.ring_sites = {0, 1};
  NodeSpec slow = opts.net.default_spec;
  slow.link_bw_bps = 1e8;
  opts.site_specs[1] = slow;
  NodeSpec fast = opts.net.default_spec;
  fast.link_bw_bps = 2.5e9;
  opts.ring_node_specs[{1, 0}] = fast;
  SimDeployment d(opts);

  EXPECT_EQ(d.acceptor_node(0, 0)->spec().link_bw_bps, 1e9);
  EXPECT_EQ(d.acceptor_node(1, 0)->spec().link_bw_bps, 2.5e9);  // per-node
  EXPECT_EQ(d.acceptor_node(1, 1)->spec().link_bw_bps, 1e8);    // per-site
  EXPECT_EQ(d.net().site_of(d.acceptor_node(1, 1)->self()), 1u);
  EXPECT_EQ(d.ring_site(1), 1u);
}

// A WAN partition must stall only the rings it robs of a quorum: ring 0
// lives entirely in site A and keeps delivering; ring 1 spans A/B and
// stalls until the link heals, after which it catches up (chaos-style).
TEST(GeoDeployment, PartitionStallsOnlyQuorumLosingRings) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.ring_size = 2;
  opts.net.seed = 11;
  Topology topo;
  const SiteId site_a = topo.AddSite("A");
  topo.Connect(site_a, topo.AddSite("B"), Wan(Millis(10)));
  opts.net.topology = topo;
  opts.ring_sites = {0, 0};
  opts.ring_node_sites[{1, 1}] = 1;  // ring 1's second acceptor in B
  // Keep membership static: this experiment is about quorum loss, not
  // fail-over (the coordinators would otherwise suspect remote members).
  opts.suspect_after = Seconds(60);
  SimDeployment d(opts);
  auto* l0 = d.AddMergeLearner({0});         // site-A-only ring
  auto* l1 = d.AddMergeLearner({1});         // spanning ring
  auto* lc = d.AddMergeLearner({0, 1});      // merges both
  d.AddProposer(0, OpenLoop(500, 1024));
  d.AddProposer(1, OpenLoop(500, 1024));
  d.Start();

  d.RunFor(Seconds(1));
  const auto b0 = l0->total_delivered();
  const auto b1 = l1->total_delivered();
  const auto bc = lc->total_delivered();
  EXPECT_GT(b0, 200u);
  EXPECT_GT(b1, 200u);
  EXPECT_GT(bc, 400u);

  d.net().SetLinkUp(0, 1, false);
  d.RunFor(Seconds(1));
  const auto d0 = l0->total_delivered() - b0;
  const auto d1 = l1->total_delivered() - b1;
  const auto dc = lc->total_delivered() - bc;
  EXPECT_GT(d0, 200u) << "site-local ring must keep delivering";
  EXPECT_LT(d1, 50u) << "quorum-losing ring must stall";
  EXPECT_LT(dc, 100u) << "merge over a stalled group must stall";

  d.net().SetLinkUp(0, 1, true);
  d.RunFor(Seconds(2));
  EXPECT_GT(l1->total_delivered() - b1 - d1, 200u)
      << "spanning ring must resume after heal";
  EXPECT_GT(lc->total_delivered() - bc - dc, 400u)
      << "merge must resume after heal";
  EXPECT_FALSE(l0->halted());
  EXPECT_FALSE(l1->halted());
  EXPECT_FALSE(lc->halted());
}

// ---- Geo-aware merge learner (per-group quotas, compensation) ----

// Rate-skewed rings (lambda_0 = 2 * lambda_1): a uniform M=1 merge can
// only cycle at the slow ring's instance rate, so the fast ring's
// buffer grows without bound and the learner halts (Figure 10's
// failure mode). Rate-proportional quotas M_g = {2, 1} consume the fast
// ring at its production rate and stay bounded (Stretching M-RP).
TEST(GeoMerge, PerGroupQuotaKeepsRateSkewedLearnerBounded) {
  DeploymentOptions opts;
  opts.n_rings = 2;
  opts.net.seed = 5;
  opts.ring_lambda = {4000, 2000};
  SimDeployment d(opts);
  MergeLearner::Options uniform;
  uniform.max_buffer_msgs = 1500;
  auto* lu = d.AddMergeLearner({0, 1}, std::move(uniform));
  MergeLearner::Options quota;
  quota.m_per_group = {{0, 2}, {1, 1}};
  quota.max_buffer_msgs = 1500;
  auto* lq = d.AddMergeLearner({0, 1}, std::move(quota));
  d.AddProposer(0, OpenLoop(3500, 512));
  d.AddProposer(1, OpenLoop(1000, 512));
  d.Start();
  d.RunFor(Seconds(2));

  EXPECT_EQ(lq->quota(0), 2u);
  EXPECT_EQ(lq->quota(1), 1u);
  EXPECT_TRUE(lu->halted()) << "uniform M must overflow on skewed rates";
  EXPECT_FALSE(lq->halted()) << "rate-proportional M_g must stay bounded";
  EXPECT_GT(lq->total_delivered(), 2000u);
}

TEST(GeoMerge, LatencyCompensationDefersDeliveryToTarget) {
  DeploymentOptions opts;
  opts.n_rings = 1;
  opts.net.seed = 3;
  SimDeployment d(opts);
  auto* lp = d.AddMergeLearner({0});
  MergeLearner::Options comp;
  comp.latency_compensation = Millis(50);
  auto* lc = d.AddMergeLearner({0}, std::move(comp));
  d.AddProposer(0, OpenLoop(500, 1024));
  d.Start();
  d.RunFor(Seconds(1));

  ASSERT_GT(lp->total_delivered(), 100u);
  ASSERT_GT(lc->total_delivered(), 100u);
  // Uncompensated deliveries run at LAN latency; compensated ones are
  // held to at least the 50 ms target, aligning sites' delivery skew.
  EXPECT_LT(lp->stats(0).latency.min(), 50'000'000u);
  EXPECT_GE(lc->stats(0).latency.min(), 50'000'000u);
  // At most the in-flight 50 ms window separates the delivered counts.
  EXPECT_GE(lc->total_delivered() + 100, lp->total_delivered());
  // The hold queue exported its instruments on the learner's node.
  auto& node = *d.learner_node(1);
  EXPECT_GT(node.metrics().counter("merge.comp_held").value(), 0u);
}

}  // namespace
}  // namespace mrp::sim
