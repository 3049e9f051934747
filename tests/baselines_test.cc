// Baseline protocol tests: LCR total order and stability, Totem global
// sequencing and group filtering.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "baselines/lcr.h"
#include "baselines/totem.h"
#include "sim/network.h"

namespace mrp::baselines {
namespace {

using sim::SimNetwork;

// ------------------------------------------------------------------ LCR

struct LcrCluster {
  explicit LcrCluster(int n, std::size_t window, std::uint64_t seed = 1) {
    sim::NetConfig cfg;
    cfg.seed = seed;
    net = std::make_unique<SimNetwork>(cfg);
    LcrConfig lc;
    lc.window = window;
    lc.payload_size = 32 * 1024;
    for (int i = 0; i < n; ++i) {
      auto& node = net->AddNode();
      lc.ring.push_back(node.self());
      nodes.push_back(&node);
    }
    logs.resize(n);
    for (int i = 0; i < n; ++i) {
      auto& log = logs[i];
      auto proto = std::make_unique<LcrNode>(lc, [&log](const LcrData& d) {
        log.emplace_back(d.sender, d.seq);
      });
      protos.push_back(proto.get());
      nodes[i]->BindProtocol(std::move(proto));
    }
    net->StartAll();
  }

  std::unique_ptr<SimNetwork> net;
  std::vector<sim::SimNode*> nodes;
  std::vector<LcrNode*> protos;
  std::vector<std::vector<std::pair<NodeId, std::uint64_t>>> logs;
};

TEST(Lcr, AllNodesDeliverAllMessagesInTotalOrder) {
  LcrCluster c(4, /*window=*/2);
  c.net->RunFor(Seconds(1));

  ASSERT_GT(c.logs[0].size(), 100u);
  // Total order: every log is a prefix of the longest one.
  for (int i = 1; i < 4; ++i) {
    const auto n = std::min(c.logs[0].size(), c.logs[i].size());
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(c.logs[0][j], c.logs[i][j]) << "node " << i << " diverged at " << j;
    }
  }
  // All senders contribute (every node broadcasts).
  std::map<NodeId, int> per_sender;
  for (const auto& [s, q] : c.logs[0]) per_sender[s]++;
  EXPECT_EQ(per_sender.size(), 4u);
}

TEST(Lcr, FifoPerSender) {
  LcrCluster c(3, 4);
  c.net->RunFor(Seconds(1));
  std::map<NodeId, std::uint64_t> last;
  for (const auto& [s, q] : c.logs[1]) {
    EXPECT_EQ(q, last[s] + 1) << "sender " << s;
    last[s] = q;
  }
}

TEST(Lcr, ThroughputIndependentOfRingSize) {
  auto run = [](int n) {
    LcrCluster c(n, 4);
    c.net->RunFor(Seconds(2));
    std::uint64_t bytes = 0;
    for (auto* p : c.protos) bytes = std::max(bytes, p->delivered().total_bytes());
    return static_cast<double>(bytes) * 8 / 2 / 1e6;  // Mbps at one node
  };
  const double t2 = run(2);
  const double t8 = run(8);
  // Flat: within 2x of each other, and both substantial.
  EXPECT_GT(t2, 300);
  EXPECT_GT(t8, 300);
  EXPECT_LT(std::abs(t2 - t8) / t2, 0.8);
}

// ---------------------------------------------------------------- Totem

struct TotemCluster {
  // k daemons, one client per daemon, client i in group i.
  explicit TotemCluster(int k, std::uint32_t payload = 16 * 1024) {
    net = std::make_unique<SimNetwork>();
    TotemConfig tc;
    tc.data_channel = 100;
    std::vector<sim::SimNode*> daemon_nodes;
    for (int i = 0; i < k; ++i) {
      auto& node = net->AddNode();
      tc.daemons.push_back(node.self());
      daemon_nodes.push_back(&node);
      net->Subscribe(node.self(), tc.data_channel);
    }
    for (int i = 0; i < k; ++i) {
      auto& cnode = net->AddNode();
      TotemClient::Config cc;
      cc.daemon = tc.daemons[i];
      cc.group = static_cast<GroupId>(i);
      cc.payload_size = payload;
      cc.window = 4;
      auto client = std::make_unique<TotemClient>(cc);
      clients.push_back(client.get());
      cnode.BindProtocol(std::move(client));
      client_nodes.push_back(&cnode);
    }
    for (int i = 0; i < k; ++i) {
      std::vector<TotemDaemon::ClientSub> subs{
          {client_nodes[i]->self(), {static_cast<GroupId>(i)}}};
      auto daemon = std::make_unique<TotemDaemon>(tc, subs);
      daemons.push_back(daemon.get());
      daemon_nodes[i]->BindProtocol(std::move(daemon));
    }
    net->StartAll();
  }

  std::unique_ptr<SimNetwork> net;
  std::vector<TotemDaemon*> daemons;
  std::vector<TotemClient*> clients;
  std::vector<sim::SimNode*> client_nodes;
};

TEST(Totem, DeliversToSubscribedClientsOnly) {
  TotemCluster c(3);
  c.net->RunFor(Seconds(1));
  for (auto* client : c.clients) {
    EXPECT_GT(client->delivered().total_count(), 20u);
  }
  // All daemons ordered the same global sequence (up to messages still
  // in flight when the run was cut off).
  for (auto* d : c.daemons) {
    EXPECT_NEAR(static_cast<double>(d->ordered()),
                static_cast<double>(c.daemons[0]->ordered()), 16.0);
  }
}

TEST(Totem, SingleDaemonWorks) {
  TotemCluster c(1);
  c.net->RunFor(Seconds(1));
  EXPECT_GT(c.clients[0]->delivered().total_count(), 50u);
}

TEST(Totem, AggregateThroughputFlatInDaemonCount) {
  auto run = [](int k) {
    TotemCluster c(k);
    c.net->RunFor(Seconds(2));
    std::uint64_t bytes = 0;
    for (auto* client : c.clients) bytes += client->delivered().total_bytes();
    return static_cast<double>(bytes) * 8 / 2 / 1e6;
  };
  const double t1 = run(1);
  const double t4 = run(4);
  const double t8 = run(8);
  EXPECT_GT(t1, 50);
  // Adding daemons/groups does not scale throughput (within 2.5x).
  EXPECT_LT(t8 / t1, 2.5);
  EXPECT_LT(t4 / t1, 2.5);
}

}  // namespace
}  // namespace mrp::baselines

namespace mrp::baselines {
namespace {

TEST(Totem, SurvivesMessageLossViaNacks) {
  sim::NetConfig cfg;
  cfg.loss_probability = 0.02;
  cfg.seed = 31;
  auto net = std::make_unique<sim::SimNetwork>(cfg);
  TotemConfig tc;
  tc.data_channel = 100;
  tc.token_retry = Millis(20);
  std::vector<sim::SimNode*> daemon_nodes;
  for (int i = 0; i < 3; ++i) {
    auto& node = net->AddNode();
    tc.daemons.push_back(node.self());
    daemon_nodes.push_back(&node);
    net->Subscribe(node.self(), tc.data_channel);
  }
  std::vector<TotemClient*> clients;
  std::vector<sim::SimNode*> client_nodes;
  for (int i = 0; i < 3; ++i) {
    auto& cnode = net->AddNode();
    TotemClient::Config cc;
    cc.daemon = tc.daemons[i];
    cc.group = static_cast<GroupId>(i);
    cc.window = 2;
    cc.payload_size = 2000;
    auto client = std::make_unique<TotemClient>(cc);
    clients.push_back(client.get());
    cnode.BindProtocol(std::move(client));
    client_nodes.push_back(&cnode);
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<TotemDaemon::ClientSub> subs{
        {client_nodes[i]->self(), {static_cast<GroupId>(i)}}};
    daemon_nodes[i]->BindProtocol(std::make_unique<TotemDaemon>(tc, subs));
  }
  net->StartAll();
  net->RunFor(Seconds(3));
  // With 2% loss and no recovery the global sequence would wedge within
  // a few hundred messages; NACK-driven retransmission keeps it moving.
  for (auto* c : clients) {
    EXPECT_GT(c->delivered().total_count(), 100u);
  }
}

}  // namespace
}  // namespace mrp::baselines

#include "baselines/mencius.h"

namespace mrp::baselines {
namespace {

struct MenciusCluster {
  explicit MenciusCluster(int n) {
    net = std::make_unique<SimNetwork>();
    MenciusConfig mc;
    for (int i = 0; i < n; ++i) {
      auto& node = net->AddNode();
      mc.servers.push_back(node.self());
      nodes.push_back(&node);
      net->Subscribe(node.self(), mc.data_channel);
    }
    logs.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto& log = logs[static_cast<std::size_t>(i)];
      auto server = std::make_unique<MenciusServer>(
          mc, [&log](InstanceId /*inst*/, const paxos::Value& v) {
            for (const auto& m : v.msgs) log.emplace_back(m.proposer, m.seq);
          });
      servers.push_back(server.get());
      nodes[static_cast<std::size_t>(i)]->BindProtocol(std::move(server));
    }
    net->StartAll();
  }

  void Submit(int server, std::uint64_t seq, std::uint32_t size = 8 * 1024) {
    auto* node = nodes[static_cast<std::size_t>(server)];
    node->Execute(Duration{0}, [this, node, server, seq, size] {
      paxos::ClientMsg m;
      m.proposer = node->self();
      m.seq = seq;
      m.sent_at = net->now();
      m.payload_size = size;
      servers[static_cast<std::size_t>(server)]->OnMessage(
          *node, node->self(), MakeMessage<MenciusSubmit>(std::move(m)));
    });
  }

  std::unique_ptr<SimNetwork> net;
  std::vector<sim::SimNode*> nodes;
  std::vector<MenciusServer*> servers;
  std::vector<std::vector<std::pair<NodeId, std::uint64_t>>> logs;
};

TEST(Mencius, MultiLeaderTotalOrder) {
  MenciusCluster c(3);
  for (int round = 0; round < 30; ++round) {
    for (int s = 0; s < 3; ++s) {
      c.Submit(s, static_cast<std::uint64_t>(round + 1));
    }
    c.net->RunFor(Millis(5));
  }
  c.net->RunFor(Millis(500));

  ASSERT_GE(c.logs[0].size(), 90u);
  for (int i = 1; i < 3; ++i) {
    const auto n = std::min(c.logs[0].size(), c.logs[static_cast<std::size_t>(i)].size());
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(c.logs[0][j], c.logs[static_cast<std::size_t>(i)][j])
          << "server " << i << " diverged at " << j;
    }
  }
  // All three leaders' submissions delivered.
  std::map<NodeId, int> per_sender;
  for (const auto& [p, s] : c.logs[0]) per_sender[p]++;
  EXPECT_EQ(per_sender.size(), 3u);
}

TEST(Mencius, IdleLeadersSkipSoLoadedLeaderProceeds) {
  // Only server 0 has client load; servers 1 and 2 must fill their owed
  // instances with no-ops or the in-order delivery would stall forever.
  MenciusCluster c(3);
  for (int i = 0; i < 50; ++i) {
    c.Submit(0, static_cast<std::uint64_t>(i + 1));
    c.net->RunFor(Millis(2));
  }
  c.net->RunFor(Millis(500));

  EXPECT_EQ(c.logs[0].size(), 50u);
  EXPECT_GT(c.servers[1]->noops_proposed(), 20u);
  EXPECT_GT(c.servers[2]->noops_proposed(), 20u);
  // Latency stayed bounded (the skip rule is event-driven).
  EXPECT_LT(c.servers[0]->latency().TrimmedMean(0.05), 20e6);
}

TEST(Mencius, SingleServerDegenerate) {
  MenciusCluster c(1);
  for (int i = 0; i < 10; ++i) c.Submit(0, static_cast<std::uint64_t>(i + 1));
  c.net->RunFor(Millis(200));
  EXPECT_EQ(c.logs[0].size(), 10u);
}

}  // namespace
}  // namespace mrp::baselines
