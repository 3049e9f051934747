// LcrGroupSource: orders a Multi-Ring group with LCR (ring-based,
// throughput-optimal atomic broadcast) instead of Ring Paxos — the third
// substrate under the deterministic merge, alongside Ring Paxos and
// plain Paxos, completing the paper's Section VII conjecture.
//
// LCR has no passive learner role: every ring member delivers. The
// hosting Multi-Ring learner node therefore IS a member of the group's
// LCR ring; this adapter embeds the LcrNode, turns its delivery stream
// into the GroupSource instance stream (delivery index = instance), and
// lets LCR's own skip broadcasts (LcrConfig::lambda_per_sec on ring[0])
// pad the group's rate.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "baselines/lcr.h"
#include "paxos/group_source.h"

namespace mrp::multiring {

class LcrGroupSource final : public paxos::GroupSource {
 public:
  explicit LcrGroupSource(baselines::LcrConfig cfg)
      : group_(cfg.group),
        node_(std::move(cfg), [this](const baselines::LcrData& d) {
          queue_.push_back(d.value);
          buffered_ += d.value.msgs.size();
        }) {}

  void OnStart(Env& env) override { node_.OnStart(env); }

  bool OnMessage(Env& env, NodeId from, const MessagePtr& m) override {
    if (Cast<baselines::LcrData>(m) == nullptr &&
        Cast<baselines::LcrAck>(m) == nullptr &&
        Cast<baselines::LcrSubmit>(m) == nullptr) {
      return false;
    }
    node_.OnMessage(env, from, m);
    return true;
  }

  bool HasReady() const override { return !queue_.empty(); }

  std::optional<Ready> Pop() override {
    if (queue_.empty()) return std::nullopt;
    paxos::Value value = std::move(queue_.front());
    queue_.pop_front();
    buffered_ -= std::min(buffered_, value.msgs.size());
    return Ready{next_instance_++, std::move(value)};
  }

  std::size_t buffered_msgs() const override { return buffered_; }

  void Tick(Env&) override {}  // LCR's ack circulation needs no pump

  GroupId group() const override { return group_; }

  baselines::LcrNode& node() { return node_; }

 private:
  GroupId group_;
  baselines::LcrNode node_;
  std::deque<paxos::Value> queue_;
  std::size_t buffered_ = 0;
  InstanceId next_instance_ = 0;
};

}  // namespace mrp::multiring
