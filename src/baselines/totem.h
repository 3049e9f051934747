// Spread-like group communication baseline: daemons in a Totem-style
// single token ring. Clients connect to a daemon; the daemon queues
// their messages and, while holding the rotating token, stamps them with
// global sequence numbers and ip-multicasts them to all daemons. Every
// daemon orders all messages (one global sequence — this is why adding
// daemons/groups does not add throughput) and forwards to its connected
// clients those messages whose group the client subscribed to.
//
// This reproduces the property the paper uses Spread for in Figure 5:
// the abstraction of process groups exists for application design, not
// for performance — throughput is flat in the number of daemons/groups.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <functional>
#include <map>
#include <vector>

#include "common/env.h"
#include "common/instance_window.h"
#include "common/stats.h"
#include "common/types.h"

namespace mrp::baselines {

struct TotemConfig {
  std::vector<NodeId> daemons;  // token ring order
  ChannelId data_channel = 100;
  std::size_t max_burst = 8;    // messages multicast per token visit
  Duration token_retry = Millis(50);  // token-loss regeneration (daemon 0)
};

// Client -> daemon.
struct TotemSend final : MessageBase {
  GroupId group;
  NodeId client;
  std::uint64_t client_seq;
  std::uint32_t payload_size;
  TimePoint sent_at;

  TotemSend(GroupId g, NodeId c, std::uint64_t s, std::uint32_t ps, TimePoint at)
      : group(g), client(c), client_seq(s), payload_size(ps), sent_at(at) {}
  std::size_t WireSize() const override { return 4 + 4 + 8 + 4 + 8 + 8 + payload_size; }
  static constexpr MessageType kType{0, "totem.Send"};
  const MessageType& type() const override { return kType; }
};

// Daemon -> all daemons (ip-multicast), globally sequenced.
struct TotemData final : MessageBase {
  std::uint64_t seq;
  GroupId group;
  NodeId client;
  std::uint64_t client_seq;
  std::uint32_t payload_size;
  TimePoint sent_at;

  TotemData(std::uint64_t q, GroupId g, NodeId c, std::uint64_t cs,
            std::uint32_t ps, TimePoint at)
      : seq(q), group(g), client(c), client_seq(cs), payload_size(ps), sent_at(at) {}
  std::size_t WireSize() const override {
    return 8 + 4 + 4 + 8 + 4 + 8 + 8 + payload_size;
  }
  static constexpr MessageType kType{0, "totem.Data"};
  const MessageType& type() const override { return kType; }
};

// Daemon -> connected client (delivery).
struct TotemDeliver final : MessageBase {
  std::uint64_t seq;
  GroupId group;
  NodeId client;
  std::uint64_t client_seq;
  std::uint32_t payload_size;
  TimePoint sent_at;

  explicit TotemDeliver(const TotemData& d)
      : seq(d.seq), group(d.group), client(d.client), client_seq(d.client_seq),
        payload_size(d.payload_size), sent_at(d.sent_at) {}
  std::size_t WireSize() const override {
    return 8 + 4 + 4 + 8 + 4 + 8 + 8 + payload_size;
  }
  static constexpr MessageType kType{0, "totem.Deliver"};
  const MessageType& type() const override { return kType; }
};

// Daemon -> daemon: retransmit the globally-sequenced messages in
// [from_seq, from_seq + count) (gap detected in the ordered stream).
struct TotemNack final : MessageBase {
  std::uint64_t from_seq;
  std::uint32_t count;

  TotemNack(std::uint64_t from, std::uint32_t n) : from_seq(from), count(n) {}
  std::size_t WireSize() const override { return 8 + 8 + 4; }
  static constexpr MessageType kType{0, "totem.Nack"};
  const MessageType& type() const override { return kType; }
};

struct TotemToken final : MessageBase {
  std::uint64_t next_seq;
  std::uint64_t rotation;

  TotemToken(std::uint64_t s, std::uint64_t r) : next_seq(s), rotation(r) {}
  std::size_t WireSize() const override { return 8 + 8 + 8; }
  static constexpr MessageType kType{0, "totem.Token"};
  const MessageType& type() const override { return kType; }
};

class TotemDaemon final : public Protocol {
 public:
  struct ClientSub {
    NodeId client;
    std::vector<GroupId> groups;
  };

  TotemDaemon(TotemConfig cfg, std::vector<ClientSub> clients)
      : cfg_(std::move(cfg)), clients_(std::move(clients)) {}

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  std::uint64_t ordered() const { return ordered_; }

 private:
  std::size_t IndexOf(NodeId n) const;
  void HandleToken(Env& env, const TotemToken& token);
  void TokenWatch(Env& env);
  void GapWatch(Env& env);
  void DrainOrdered(Env& env);

  TotemConfig cfg_;
  std::vector<ClientSub> clients_;
  std::size_t my_idx_ = 0;
  std::deque<MessagePtr> pending_;  // TotemSend from clients
  InstanceWindow<MessagePtr> ordered_window_;  // TotemData by seq
  std::map<std::uint64_t, MessagePtr> sent_log_;  // own multicasts, for NACKs
  std::uint64_t last_token_seq_ = 0;
  InstanceId last_drained_ = 0;
  TimePoint last_token_seen_{0};
  std::uint64_t ordered_ = 0;
};

// Closed-loop client: keeps `window` messages in flight to its daemon;
// measures end-to-end latency on delivery of its own messages.
class TotemClient final : public Protocol {
 public:
  struct Config {
    NodeId daemon = kNoNode;
    GroupId group = 0;
    std::uint32_t payload_size = 16 * 1024;  // Figure 5 uses 16 kB
    std::size_t window = 2;
    Duration start_jitter = Millis(5);
    // Resubmit when no own delivery arrived for this long (covers lost
    // sends and lost deliveries; duplicates are re-sequenced).
    Duration retry = Millis(100);
  };

  explicit TotemClient(Config cfg) : cfg_(cfg) {}

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  Histogram& latency() { return latency_; }
  RateMeter& delivered() { return delivered_; }

 private:
  void SendOne(Env& env);
  void RetryWatch(Env& env);

  Config cfg_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_delivered_own_ = 0;  // progress marker for retries
  std::uint64_t outstanding_ = 0;
  Histogram latency_;
  RateMeter delivered_;
};

}  // namespace mrp::baselines
