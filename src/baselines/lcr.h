// LCR (Guerraoui et al., "Throughput optimal total order broadcast for
// cluster environments", TOCS 2010): atomic broadcast on a logical ring
// of n nodes. Every message travels n-1 hops along the ring; the
// sender's predecessor, upon receiving it, originates an acknowledgement
// that also circulates. A message is stable at a node once its ack
// arrived; stable messages are delivered in the deterministic order
// (sum-of-vector-clock, sender index, sequence), a total extension of
// causality that all nodes compute identically.
//
// Delivery safety relies on the FIFO ring: when ack(m) reaches node x,
// every message any node sent before forwarding ack(m) — in particular
// every message that can be ordered before m — has already reached x.
//
// Used as the Figure 5 comparator: aggregate throughput near link speed,
// independent of n (it does not grow as nodes are added), no group
// abstraction.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/env.h"
#include "common/stats.h"
#include "common/types.h"
#include "paxos/value.h"

namespace mrp::baselines {

struct LcrConfig {
  std::vector<NodeId> ring;  // all members, ring order
  std::uint32_t payload_size = 32 * 1024;  // Figure 5 uses 32 kB for LCR
  // Closed-loop self-clocked workload: each node keeps `window` own
  // broadcasts unstable; 0 disables the built-in workload.
  std::size_t window = 0;
  Duration start_jitter = Millis(5);
  // Multi-Ring composition over LCR (paper Section VII): the group this
  // ring orders, and the skip policy run by ring[0] (Algorithm 1 over
  // LCR's delivery stream). lambda_per_sec == 0 disables skips.
  GroupId group = 0;
  double lambda_per_sec = 0;
  Duration delta = Millis(1);
};

struct LcrData final : MessageBase {
  NodeId sender;
  std::uint64_t seq;
  std::vector<std::uint32_t> ts;  // sender's vector clock at send time
  std::uint32_t payload_size;
  TimePoint sent_at;
  // Optional structured payload (batches or skips) for Multi-Ring
  // composition; plain benchmarks leave it empty and use payload_size.
  paxos::Value value;

  LcrData(NodeId s, std::uint64_t q, std::vector<std::uint32_t> t,
          std::uint32_t ps, TimePoint at, paxos::Value v = {})
      : sender(s), seq(q), ts(std::move(t)), payload_size(ps), sent_at(at),
        value(std::move(v)) {}
  std::size_t WireSize() const override {
    return 4 + 8 + ts.size() * 4 + 8 + 4 + 8 + payload_size + value.WireSize();
  }
  static constexpr MessageType kType{0, "lcr.Data"};
  const MessageType& type() const override { return kType; }
};

// Client -> LCR member: broadcast this message on my behalf (LCR itself
// has no proposer role; members broadcast).
struct LcrSubmit final : MessageBase {
  GroupId group;
  paxos::ClientMsg msg;

  LcrSubmit(GroupId g, paxos::ClientMsg m) : group(g), msg(std::move(m)) {}
  std::size_t WireSize() const override { return 8 + 4 + msg.WireSize(); }
  static constexpr MessageType kType{0, "lcr.Submit"};
  const MessageType& type() const override { return kType; }
};

struct LcrAck final : MessageBase {
  NodeId sender;
  std::uint64_t seq;
  std::uint32_t hops;  // remaining forwards

  LcrAck(NodeId s, std::uint64_t q, std::uint32_t h) : sender(s), seq(q), hops(h) {}
  std::size_t WireSize() const override { return 4 + 8 + 4 + 8; }
  static constexpr MessageType kType{0, "lcr.Ack"};
  const MessageType& type() const override { return kType; }
};

class LcrNode final : public Protocol {
 public:
  using DeliverFn = std::function<void(const LcrData&)>;

  explicit LcrNode(LcrConfig cfg, DeliverFn on_deliver = nullptr)
      : cfg_(std::move(cfg)), on_deliver_(std::move(on_deliver)) {}

  void OnStart(Env& env) override;
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override;

  // Application broadcast (also driven internally when window > 0).
  void Broadcast(Env& env, std::uint32_t payload_size);
  // Broadcast a structured value (Multi-Ring composition).
  void BroadcastValue(Env& env, paxos::Value value);

  // ---- Stats ----
  Histogram& latency() { return latency_; }
  RateMeter& delivered() { return delivered_; }
  std::uint64_t delivered_msgs() const { return delivered_.total_count(); }

 private:
  struct Key {
    std::uint64_t ts_sum;
    std::uint32_t sender_idx;
    std::uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };
  struct Pending {
    MessagePtr msg;  // shared LcrData
    bool stable = false;
  };

  std::size_t IndexOf(NodeId n) const;
  NodeId Successor() const;
  void TryDeliver(Env& env);
  void MarkStable(Env& env, NodeId sender, std::uint64_t seq);
  void Store(Env& env, const MessagePtr& m, const LcrData& data);
  void OnDeltaTimer(Env& env);

  LcrConfig cfg_;
  DeliverFn on_deliver_;
  std::size_t my_idx_ = 0;
  std::vector<std::uint32_t> vc_;
  std::map<Key, Pending> undelivered_;
  std::map<std::pair<NodeId, std::uint64_t>, Key> key_of_;  // unstable index
  std::size_t own_unstable_ = 0;
  Histogram latency_;
  RateMeter delivered_;
  // Skip policy state (ring[0] only).
  double logical_k_ = 0;
  double prev_k_ = 0;
  TimePoint last_sample_{0};
};

}  // namespace mrp::baselines
