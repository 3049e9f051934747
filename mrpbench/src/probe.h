// Instrumentation the benchmark wraps around the system from outside:
//
//  * ProbeProtocol decorates one protocol role. The inner role gets the
//    decorator as its Env, so every OnMessage, timer callback, Send and
//    Multicast passes through it. Traced runs time them (a role's self
//    time is its handler time minus the Env calls it made) and feed the
//    stage tracker; on the simulator they also measure the codec on each
//    message sent. Untraced runs only apply the client gate.
//  * ProbeTransport decorates one runtime endpoint in traced runs: it
//    times sends, stamps receives for the event-loop wait, and measures
//    the codec.
//  * StageTracker stamps each request at the stage boundaries and
//    splits its end-to-end latency into stages that sum to it. It counts
//    the deliveries without a complete stamp set and the stages shorter
//    than an independent floor, so a misplaced stamp fails the run.
//  * SpanLog keeps a bounded sample of spans in memory for the trace
//    file written at exit.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/stats.h"
#include "multiring/merge_learner.h"
#include "net/codec.h"
#include "ringpaxos/messages.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"
#include "runtime/transport.h"

namespace mrpbench {

using mrp::ChannelId;
using mrp::Duration;
using mrp::GroupId;
using mrp::InstanceId;
using mrp::MessagePtr;
using mrp::NodeId;
using mrp::RingId;
using mrp::TimePoint;
using mrp::TimerId;

// One process clock for every thread: ns since the first call. Each
// runtime EventLoop has its own epoch, so Env::now() is not comparable
// across nodes; everything the benchmark times across nodes uses this.
inline std::int64_t WallNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// Request identity (group, proposer, seq) packed for hash maps; proposer
// ids are unique per deployment, so the group is implied.
inline std::uint64_t RequestKey(NodeId proposer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(proposer) << 40) | seq;
}

enum class Layer : int { kClient = 0, kCoordinator, kAcceptor, kMerge };
constexpr int kLayers = 4;
// Single-writer counter that another thread may read.
struct Acc {
  std::atomic<std::uint64_t> v{0};
  void Add(std::uint64_t x) { v.fetch_add(x, std::memory_order_relaxed); }
  std::uint64_t Get() const { return v.load(std::memory_order_relaxed); }
};

// ---------------------------------------------------------------- spans

struct Span {
  const char* name = "";
  bool sim_clock = false;  // stage spans of simulator runs
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  NodeId node = mrp::kNoNode;
  // Request id; proposer == kNoNode for spans not tied to one request.
  GroupId group = 0;
  NodeId proposer = mrp::kNoNode;
  std::uint64_t seq = 0;
};

class SpanLog {
 public:
  // Keeps the first `cap` handler/Env spans and, separately, the first
  // `cap` request/stage spans, so busy handlers cannot crowd out the
  // request breakdowns.
  explicit SpanLog(std::size_t cap) : cap_(cap) {}

  std::uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Add(const Span& s, bool request = false) {
    const std::size_t kind = request ? 1 : 0;
    if (full_[kind].load(std::memory_order_relaxed)) return;
    std::scoped_lock lock(mu_);
    if (count_[kind] >= cap_) {
      full_[kind].store(true, std::memory_order_relaxed);
      return;
    }
    ++count_[kind];
    spans_.push_back(s);
  }

  std::size_t size() const {
    std::scoped_lock lock(mu_);
    return spans_.size();
  }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::scoped_lock lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"clock\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"id\":%u,\"parent\":%u,\"node\":%d",
                   s.name, s.sim_clock ? "sim" : "wall",
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.id, s.parent,
                   s.node == mrp::kNoNode ? -1 : static_cast<int>(s.node));
      if (s.proposer != mrp::kNoNode) {
        std::fprintf(f, ",\"request\":[%u,%u,%llu]", s.group, s.proposer,
                     static_cast<unsigned long long>(s.seq));
      }
      std::fprintf(f, "}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  const std::size_t cap_;
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<bool> full_[2] = {false, false};
  std::size_t count_[2] = {0, 0};  // guarded by mu_
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------- stage tracking

// Per-request stamps at the five stage boundaries:
//   submit (client) -> coordinator receives the Submit -> coordinator
//   multicasts the P2A carrying it -> coordinator receives the closing
//   P2B (decided) -> merge learner holds value and decision -> merge
//   consumes and delivers it.
// Each stage is the gap between consecutive boundaries, so the five
// stages of one request add up to its end-to-end latency exactly.
class StageTracker {
 public:
  using Histogram = mrp::Histogram;
  static constexpr int kStages = 5;
  static constexpr const char* kStageNames[kStages] = {
      "stage.submit", "stage.batch_wait", "stage.phase2",
      "stage.decision_fanout", "merge.wait"};

  StageTracker(std::function<std::int64_t()> clock, bool sim_clock, SpanLog* spans)
      : clock_(std::move(clock)), sim_clock_(sim_clock), spans_(spans) {}

  std::int64_t Now() const { return clock_(); }

  void Submitted(const mrp::paxos::ClientMsg& m, std::int64_t t) {
    std::scoped_lock lock(mu_);
    reqs_[RequestKey(m.proposer, m.seq)].t[0] = t;
  }

  void CoordinatorInbound(const MessagePtr& m) {
    if (const auto* s = mrp::Cast<mrp::ringpaxos::Submit>(m)) {
      const std::int64_t now = Now();
      std::scoped_lock lock(mu_);
      auto it = reqs_.find(RequestKey(s->msg.proposer, s->msg.seq));
      if (it != reqs_.end() && it->second.t[1] == 0) it->second.t[1] = now;
    } else if (const auto* b = mrp::Cast<mrp::ringpaxos::P2B>(m)) {
      const std::int64_t now = Now();
      std::scoped_lock lock(mu_);
      auto& inst = insts_[InstKey(b->ring, b->instance)];
      if (inst.decided == 0) inst.decided = now;
    }
  }

  void CoordinatorOutbound(const MessagePtr& m) {
    const auto* p2a = mrp::Cast<mrp::ringpaxos::P2A>(m);
    if (p2a == nullptr || p2a->value.is_skip()) return;
    const std::int64_t now = Now();
    std::scoped_lock lock(mu_);
    for (const auto& cm : p2a->value.msgs) {
      auto it = reqs_.find(RequestKey(cm.proposer, cm.seq));
      if (it == reqs_.end() || it->second.t[2] != 0) continue;
      it->second.t[2] = now;
      it->second.inst = InstKey(p2a->ring, p2a->instance);
    }
  }

  void LearnerInbound(const MessagePtr& m) {
    using namespace mrp::ringpaxos;  // NOLINT
    const std::int64_t now = Now();
    std::scoped_lock lock(mu_);
    if (const auto* p2a = mrp::Cast<P2A>(m)) {
      auto& inst = insts_[InstKey(p2a->ring, p2a->instance)];
      if (inst.value_at == 0) inst.value_at = now;
      MarkDecided(p2a->ring, p2a->decided, now);
    } else if (const auto* d = mrp::Cast<DecisionMsg>(m)) {
      MarkDecided(d->ring, d->decided, now);
    } else if (const auto* rep = mrp::Cast<LearnRep>(m)) {
      for (const auto& e : rep->entries) {
        auto& inst = insts_[InstKey(rep->ring, e.instance)];
        if (inst.value_at == 0) inst.value_at = now;
        if (inst.learned == 0) inst.learned = now;
      }
    }
  }

  // Independent lower bounds on each stage (ns), e.g. the network hops a
  // stage must contain; a stamp at the wrong boundary breaks them.
  void SetStageFloors(const std::array<std::int64_t, kStages>& floors) {
    std::scoped_lock lock(mu_);
    floors_ = floors;
  }

  // Called at delivery; records the request's stages if every boundary
  // was seen in order. Every delivery in the window is counted, so the
  // share of complete stamp sets shows when requests are skipped.
  void Delivered(const mrp::paxos::ClientMsg& m, NodeId learner) {
    const std::int64_t now = Now();
    std::scoped_lock lock(mu_);
    if (recording_) ++window_deliveries_;
    auto it = reqs_.find(RequestKey(m.proposer, m.seq));
    if (it == reqs_.end()) return;
    Req r = it->second;
    reqs_.erase(it);
    if (!recording_) return;
    auto inst_it = insts_.find(r.inst);
    if (r.t[0] == 0 || r.t[1] == 0 || r.t[2] == 0 || inst_it == insts_.end() ||
        inst_it->second.decided == 0 || inst_it->second.value_at == 0 ||
        inst_it->second.learned == 0) {
      return;
    }
    std::int64_t b[kStages + 1] = {
        r.t[0], r.t[1], r.t[2], inst_it->second.decided,
        std::max(inst_it->second.value_at, inst_it->second.learned), now};
    for (int i = 1; i <= kStages; ++i) {
      if (b[i] < b[i - 1]) return;
    }
    ++complete_;
    for (int i = 0; i < kStages; ++i) {
      stages_[i].RecordValue(static_cast<std::uint64_t>(b[i + 1] - b[i]));
      if (b[i + 1] - b[i] < floors_[i]) ++below_floor_[i];
    }
    if (spans_ != nullptr) {
      Span root;
      root.name = "request";
      root.sim_clock = sim_clock_;
      root.start_ns = b[0];
      root.end_ns = b[kStages];
      root.id = spans_->NextId();
      root.node = learner;
      root.group = m.group;
      root.proposer = m.proposer;
      root.seq = m.seq;
      spans_->Add(root, /*request=*/true);
      for (int i = 0; i < kStages; ++i) {
        Span s = root;
        s.name = kStageNames[i];
        s.start_ns = b[i];
        s.end_ns = b[i + 1];
        s.id = spans_->NextId();
        s.parent = root.id;
        spans_->Add(s, /*request=*/true);
      }
    }
  }

  // Stage histograms only count deliveries while recording is on (the
  // measured window).
  void SetRecording(bool on) {
    std::scoped_lock lock(mu_);
    recording_ = on;
  }

  struct Summary {
    Histogram stages[kStages];
    std::uint64_t window_deliveries = 0;  // while recording
    std::uint64_t complete = 0;           // of those, with every stamp in order
    std::uint64_t below_floor[kStages] = {};
    std::int64_t floors[kStages] = {};
  };
  Summary Take() const {
    std::scoped_lock lock(mu_);
    Summary s;
    s.window_deliveries = window_deliveries_;
    s.complete = complete_;
    for (int i = 0; i < kStages; ++i) {
      s.stages[i] = stages_[i];
      s.below_floor[i] = below_floor_[i];
      s.floors[i] = floors_[i];
    }
    return s;
  }

 private:
  struct Req {
    std::int64_t t[3] = {0, 0, 0};
    std::uint64_t inst = 0;
  };
  struct Inst {
    std::int64_t decided = 0;   // coordinator received the closing P2B
    std::int64_t value_at = 0;  // learner holds the value
    std::int64_t learned = 0;   // learner holds the decision
  };
  static std::uint64_t InstKey(RingId ring, InstanceId inst) {
    return (static_cast<std::uint64_t>(ring) << 48) | inst;
  }
  void MarkDecided(RingId ring, const std::vector<mrp::ringpaxos::Decided>& ds,
                   std::int64_t now) {
    for (const auto& d : ds) {
      auto& inst = insts_[InstKey(ring, d.instance)];
      if (inst.learned == 0) inst.learned = now;
    }
  }

  std::function<std::int64_t()> clock_;
  const bool sim_clock_;
  SpanLog* spans_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Req> reqs_;
  std::unordered_map<std::uint64_t, Inst> insts_;
  bool recording_ = false;
  Histogram stages_[kStages];
  std::uint64_t window_deliveries_ = 0, complete_ = 0;
  std::uint64_t below_floor_[kStages] = {};
  std::array<std::int64_t, kStages> floors_ = {};
};

// ----------------------------------------------------------- the probe

// Shared by every decorator of one deployment.
struct Probe {
  Probe(bool traced, std::function<std::int64_t()> clock, bool sim_clock,
        SpanLog* spans)
      : traced(traced), sim_clock(sim_clock), spans(spans),
        stages(std::move(clock), sim_clock, spans) {}

  const bool traced;
  // Simulator deployment: no transport to wrap, so the protocol
  // decorator measures the codec on each message a role sends.
  const bool sim_clock;
  SpanLog* spans;
  StageTracker stages;

  // Per-layer self time (handler time minus Env calls).
  Acc layer_self_ns[kLayers];
  Acc timer_fires;

  // Codec, measured on a copy of each message leaving a node.
  Acc codec_encode_ns, codec_decode_ns, codec_bytes;

  void MeasureCodec(const mrp::MessageBase& m) {
    const std::int64_t t0 = WallNs();
    mrp::Bytes bytes = mrp::net::EncodeMessage(m);
    const std::int64_t t1 = WallNs();
    if (bytes.empty()) return;
    const std::size_t size = bytes.size();
    auto frame = std::make_shared<const mrp::Bytes>(std::move(bytes));
    const std::int64_t t2 = WallNs();
    MessagePtr decoded = mrp::net::DecodeMessage(frame);
    const std::int64_t t3 = WallNs();
    if (decoded == nullptr) return;
    codec_encode_ns.Add(static_cast<std::uint64_t>(t1 - t0));
    codec_decode_ns.Add(static_cast<std::uint64_t>(t3 - t2));
    codec_bytes.Add(size);
  }
};

// Client-side controls for one proposer: freezing it stops every
// callback (no new submissions, no retransmits) so the deployment can
// drain; `ever_blocked` latches an open-loop window stall.
struct ClientGate {
  std::atomic<bool> frozen{false};
  std::atomic<bool> ever_blocked{false};
  bool watch_blocked = false;
  const mrp::ringpaxos::Proposer* proposer = nullptr;
};

// Per-node handler accounting for the runtime's loop metrics.
struct NodeStats {
  Acc handler_ns;
};

class ProbeProtocol final : public mrp::Protocol, private mrp::Env {
 public:
  ProbeProtocol(std::unique_ptr<mrp::Protocol> inner, Probe& probe, Layer layer,
                const mrp::ringpaxos::RingNode* ring_node, ClientGate* gate,
                NodeStats* node_stats)
      : inner_(std::move(inner)), probe_(probe), layer_(layer),
        ring_node_(ring_node), gate_(gate), node_stats_(node_stats) {}

  // Runtime hook: pops the receive stamp the transport decorator pushed
  // for this message and returns it (or -1).
  std::function<std::int64_t()> pop_rx_stamp;
  // Runtime hook: loop wait (receive -> handler start), ns.
  std::function<void(std::int64_t)> on_loop_wait;
  // Runtime clients: the inner role draws from this generator, seeded
  // from the workload seed, instead of the node's fixed-seed one.
  std::unique_ptr<mrp::Rng> own_rng;

  void OnStart(mrp::Env& env) override {
    outer_ = &env;
    Call(false, [&] { inner_->OnStart(*this); });
  }

  void OnMessage(mrp::Env& env, NodeId from, const MessagePtr& m) override {
    outer_ = &env;
    if (pop_rx_stamp) {
      const std::int64_t stamp = pop_rx_stamp();
      if (stamp >= 0 && on_loop_wait) on_loop_wait(WallNs() - stamp);
    }
    if (gate_ != nullptr && gate_->frozen.load(std::memory_order_relaxed)) return;
    if (probe_.traced) {
      const Layer l = CurrentLayer();
      if (l == Layer::kCoordinator) probe_.stages.CoordinatorInbound(m);
      if (l == Layer::kMerge) probe_.stages.LearnerInbound(m);
    }
    Call(false, [&] { inner_->OnMessage(*this, from, m); });
  }

 private:
  // ---- Env, forwarded to the hosting node ----
  NodeId self() const override { return outer_->self(); }
  TimePoint now() const override { return outer_->now(); }
  mrp::Rng& rng() override { return own_rng ? *own_rng : outer_->rng(); }
  mrp::MetricsRegistry& metrics() override { return outer_->metrics(); }
  void CancelTimer(TimerId id) override { outer_->CancelTimer(id); }

  void Send(NodeId to, MessagePtr m) override {
    Outbound(m);
    EnvCall([&] { outer_->Send(to, std::move(m)); });
  }
  void Multicast(ChannelId channel, MessagePtr m) override {
    Outbound(m);
    EnvCall([&] { outer_->Multicast(channel, std::move(m)); });
  }
  TimerId SetTimer(Duration delay, std::function<void()> cb) override {
    if (!probe_.traced && gate_ == nullptr) return outer_->SetTimer(delay, std::move(cb));
    TimerId id = 0;
    EnvCall([&] {
      id = outer_->SetTimer(delay, [this, cb = std::move(cb)] {
        if (gate_ != nullptr && gate_->frozen.load(std::memory_order_relaxed)) return;
        if (probe_.traced) probe_.timer_fires.Add(1);
        Call(true, cb);
      });
    });
    return id;
  }

  Layer CurrentLayer() const {
    if (ring_node_ != nullptr) {
      return ring_node_->is_coordinator() ? Layer::kCoordinator : Layer::kAcceptor;
    }
    return layer_;
  }

  void Outbound(const MessagePtr& m) {
    if (!probe_.traced) return;
    if (CurrentLayer() == Layer::kCoordinator) probe_.stages.CoordinatorOutbound(m);
    if (probe_.sim_clock) probe_.MeasureCodec(*m);
  }

  template <typename Fn>
  void EnvCall(Fn&& fn) {
    if (!probe_.traced || depth_ == 0) {
      fn();
      return;
    }
    const std::int64_t t0 = WallNs();
    fn();
    const std::int64_t t1 = WallNs();
    child_ns_ += t1 - t0;
    if (probe_.spans != nullptr) {
      Span s;
      s.name = "env.call";
      s.start_ns = t0;
      s.end_ns = t1;
      s.id = probe_.spans->NextId();
      s.parent = span_id_;
      s.node = outer_->self();
      probe_.spans->Add(s);
    }
  }

  template <typename Fn>
  void Call(bool timer, Fn&& fn) {
    if (!probe_.traced || depth_ > 0) {
      ++depth_;
      fn();
      --depth_;
      AfterCall();
      return;
    }
    const Layer l = CurrentLayer();
    ++depth_;
    child_ns_ = 0;
    span_id_ = probe_.spans != nullptr ? probe_.spans->NextId() : 0;
    const std::int64_t t0 = WallNs();
    fn();
    const std::int64_t t1 = WallNs();
    --depth_;
    const auto total = static_cast<std::uint64_t>(t1 - t0);
    const auto child = static_cast<std::uint64_t>(std::min<std::int64_t>(child_ns_, t1 - t0));
    probe_.layer_self_ns[static_cast<int>(l)].Add(total - child);
    if (node_stats_ != nullptr) node_stats_->handler_ns.Add(total);
    if (probe_.spans != nullptr) {
      Span s;
      s.name = timer ? "handler.timer" : "handler.message";
      s.start_ns = t0;
      s.end_ns = t1;
      s.id = span_id_;
      s.node = outer_->self();
      probe_.spans->Add(s);
    }
    AfterCall();
  }

  void AfterCall() {
    if (gate_ != nullptr && gate_->watch_blocked && gate_->proposer->blocked()) {
      gate_->ever_blocked.store(true, std::memory_order_relaxed);
    }
  }

  std::unique_ptr<mrp::Protocol> inner_;
  Probe& probe_;
  const Layer layer_;
  const mrp::ringpaxos::RingNode* ring_node_;
  ClientGate* gate_;
  NodeStats* node_stats_;
  mrp::Env* outer_ = nullptr;
  int depth_ = 0;
  std::int64_t child_ns_ = 0;
  std::uint32_t span_id_ = 0;
};

// Runtime endpoint decorator, used in traced runs only.
class ProbeTransport final : public mrp::runtime::Transport {
 public:
  ProbeTransport(mrp::runtime::Transport& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  void Send(NodeId to, MessagePtr msg) override {
    probe_.MeasureCodec(*msg);
    const std::int64_t t0 = WallNs();
    inner_.Send(to, std::move(msg));
    RecordSend(WallNs() - t0);
  }
  void Multicast(ChannelId channel, MessagePtr msg) override {
    probe_.MeasureCodec(*msg);
    const std::int64_t t0 = WallNs();
    inner_.Multicast(channel, std::move(msg));
    RecordSend(WallNs() - t0);
  }
  void Subscribe(ChannelId channel) override { inner_.Subscribe(channel); }

  // The stamp queue and the loop's task queue are filled under one lock,
  // so the k-th handler invocation matches the k-th stamp.
  void SetReceiver(RxFn rx) override {
    inner_.SetReceiver([this, rx = std::move(rx)](NodeId from, MessagePtr msg) {
      std::scoped_lock lock(rx_mu_);
      rx_stamps_.push_back(WallNs());
      rx(from, std::move(msg));
    });
  }

  std::int64_t PopRxStamp() {
    std::scoped_lock lock(rx_mu_);
    if (rx_stamps_.empty()) return -1;
    const std::int64_t t = rx_stamps_.front();
    rx_stamps_.pop_front();
    return t;
  }

  // Send-call durations (ns).
  std::vector<std::int64_t> TakeSendNs() {
    std::scoped_lock lock(send_mu_);
    return std::move(send_ns_);
  }

 private:
  void RecordSend(std::int64_t ns) {
    std::scoped_lock lock(send_mu_);
    if (send_ns_.size() < kMaxSendSamples) send_ns_.push_back(ns);
  }
  static constexpr std::size_t kMaxSendSamples = 1 << 20;

  mrp::runtime::Transport& inner_;
  Probe& probe_;
  std::mutex rx_mu_;
  std::deque<std::int64_t> rx_stamps_;
  std::mutex send_mu_;
  std::vector<std::int64_t> send_ns_;
};

}  // namespace mrpbench
