// Tests for the discrete-event simulator: scheduler determinism, CPU
// cost accounting, link serialization/latency, multicast fan-out, loss,
// fault injection and the simulated disk.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/rand.h"
#include "paxos/storage.h"
#include "sim/disk_storage.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace mrp::sim {
namespace {

TEST(Scheduler, FiresInTimeThenInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  s.At(Millis(2), [&] { order.push_back(2); });
  s.At(Millis(1), [&] { order.push_back(1); });
  s.At(Millis(1), [&] { order.push_back(3); });  // same time, later insertion
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(s.now(), Millis(2));
}

// Reference scheduler for the differential tests: a std::priority_queue
// with hash-set cancellation, simple enough to trust by reading. It
// keeps the Scheduler contract: (time, insertion sequence) order, stale
// cancels are no-ops, pending()/empty() count live events, and
// events_cancelled() counts each cancelled live event once.
class ReferenceScheduler {
 public:
  using EventId = std::uint64_t;

  TimePoint now() const { return now_; }

  EventId At(TimePoint t, std::function<void()> fn) {
    const EventId id = ++next_id_;
    queue_.push(Event{t < now_ ? now_ : t, id, std::move(fn)});
    live_.insert(id);
    return id;
  }
  EventId After(Duration d, std::function<void()> fn) {
    return At(now_ + d, std::move(fn));
  }

  void Cancel(EventId id) {
    if (live_.erase(id) != 0) ++events_cancelled_;
  }

  bool empty() const { return live_.empty(); }
  std::size_t pending() const { return live_.size(); }

  TimePoint NextEventTime(TimePoint fallback) {
    DropCancelledTop();
    return queue_.empty() ? fallback : queue_.top().at;
  }

  bool RunOne() {
    DropCancelledTop();
    if (queue_.empty()) return false;
    // const_cast to move out of the top; it is popped immediately.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    live_.erase(ev.id);
    now_ = ev.at;
    ev.fn();
    ++events_run_;
    return true;
  }

  void RunUntil(TimePoint t) {
    while (NextEventTime(TimePoint::max()) <= t && RunOne()) {
    }
    if (now_ < t) now_ = t;
  }
  void RunFor(Duration d) { RunUntil(now_ + d); }
  void RunAll() {
    while (RunOne()) {
    }
  }

  std::uint64_t events_run() const { return events_run_; }
  std::uint64_t events_cancelled() const { return events_cancelled_; }

 private:
  struct Event {
    TimePoint at;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  void DropCancelledTop() {
    while (!queue_.empty() && !live_.contains(queue_.top().id)) queue_.pop();
  }

  TimePoint now_{0};
  EventId next_id_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> live_;
  std::uint64_t events_run_ = 0;
  std::uint64_t events_cancelled_ = 0;
};

// The Cancel accounting contract must hold on the wheel-backed Scheduler
// and on the reference it is checked against.
enum class Core : std::uint8_t { kWheel = 0, kPq = 1 };

template <typename Body>
void OnCore(Core core, Body body) {
  if (core == Core::kWheel) {
    Scheduler s;
    body(s);
  } else {
    ReferenceScheduler s;
    body(s);
  }
}

class SchedulerCore : public ::testing::TestWithParam<Core> {};

INSTANTIATE_TEST_SUITE_P(Cores, SchedulerCore,
                         ::testing::Values(Core::kWheel, Core::kPq),
                         [](const auto& info) {
                           return info.param == Core::kWheel ? "Wheel" : "Pq";
                         });

TEST_P(SchedulerCore, CancelSuppressesEvent) {
  OnCore(GetParam(), [](auto& s) {
    int fired = 0;
    auto id = s.At(Millis(1), [&] { ++fired; });
    s.At(Millis(2), [&] { ++fired; });
    s.Cancel(id);
    s.RunAll();
    EXPECT_EQ(fired, 1);
  });
}

TEST_P(SchedulerCore, EmptyTracksCancelledEvents) {
  OnCore(GetParam(), [](auto& s) {
    EXPECT_TRUE(s.empty());
    auto a = s.At(Millis(1), [] {});
    auto b = s.At(Millis(2), [] {});
    EXPECT_FALSE(s.empty());
    s.Cancel(a);
    s.Cancel(a);  // double-cancel must not double-count
    s.Cancel(b);
    EXPECT_TRUE(s.empty());  // only cancelled entries remain
    EXPECT_EQ(s.pending(), 0u);
    s.RunAll();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.events_cancelled(), 2u);
  });
}

TEST_P(SchedulerCore, CancelOfFiredOrUnknownIdKeepsEmptyTruthful) {
  // Regression: cancelling an id that already ran (or was never
  // scheduled) used to bump the cancelled-live count forever, so empty()
  // claimed the queue was drained while live events remained and
  // RunAll-style loops terminated early.
  OnCore(GetParam(), [](auto& s) {
    int fired = 0;
    auto a = s.At(Millis(1), [&] { ++fired; });
    ASSERT_TRUE(s.RunOne());  // `a` has fired
    s.Cancel(a);              // stale cancel: must be a no-op
    s.Cancel(12345);          // never-issued id: must be a no-op
    s.Cancel(0);
    s.Cancel(~std::uint64_t{0});
    EXPECT_TRUE(s.empty());
    s.At(Millis(2), [&] { ++fired; });
    EXPECT_FALSE(s.empty());  // the live event must be visible
    s.RunAll();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.events_cancelled(), 0u);
  });
}

TEST_P(SchedulerCore, StaleHandleDoesNotCancelReusedRecord) {
  // The wheel recycles event records LIFO, so the event scheduled right
  // after `a` fires lands in a's record. A's handle must still miss it:
  // a wheel that checked only the record slot would cancel `b`.
  OnCore(GetParam(), [](auto& s) {
    int fired = 0;
    auto a = s.At(Millis(1), [&] { ++fired; });
    ASSERT_TRUE(s.RunOne());
    auto b = s.At(Millis(2), [&] { fired += 10; });
    if constexpr (std::is_same_v<std::decay_t<decltype(s)>, Scheduler>) {
      ASSERT_EQ(s.pool_allocated(), 1u);  // b reuses a's record
    }
    EXPECT_NE(a, b);
    s.Cancel(a);
    EXPECT_EQ(s.pending(), 1u);
    s.RunAll();
    EXPECT_EQ(fired, 11);
    EXPECT_EQ(s.events_cancelled(), 0u);
  });
}

TEST_P(SchedulerCore, RunUntilSkipsCancelledHeadWithoutOverrunning) {
  // A cancelled event at the head of the queue inside the RunUntil
  // horizon must not let a live event beyond the horizon fire early.
  OnCore(GetParam(), [](auto& s) {
    int fired = 0;
    auto a = s.At(Millis(1), [&] { ++fired; });
    s.At(Millis(5), [&] { ++fired; });
    s.Cancel(a);
    s.RunUntil(Millis(2));
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(s.now(), Millis(2));
    s.RunUntil(Millis(5));
    EXPECT_EQ(fired, 1);
  });
}

TEST_P(SchedulerCore, NextEventTimeSkipsCancelledOnBothCores) {
  OnCore(GetParam(), [](auto& s) {
    auto a = s.At(Millis(1), [] {});
    s.At(Millis(3), [] {});
    EXPECT_EQ(s.NextEventTime(Millis(99)), Millis(1));
    s.Cancel(a);
    EXPECT_EQ(s.NextEventTime(Millis(99)), Millis(3));
    s.RunAll();
    EXPECT_EQ(s.NextEventTime(Millis(99)), Millis(99));
  });
}

TEST(Scheduler, StrategyPicksAmongSameTimeEvents) {
  Scheduler s;
  // Reverse-order strategy: always fire the newest enabled event.
  class Newest final : public Scheduler::Strategy {
   public:
    std::size_t PickNext(
        const std::vector<Scheduler::EventInfo>& enabled) override {
      seen_sizes.push_back(enabled.size());
      return enabled.size() - 1;
    }
    std::vector<std::size_t> seen_sizes;
  };
  Newest newest;
  s.SetStrategy(&newest);
  std::vector<int> order;
  s.At(Millis(1), EventTag{EventTag::Kind::kDelivery, 7, 1},
       [&] { order.push_back(1); });
  s.At(Millis(1), EventTag{EventTag::Kind::kDelivery, 8, 2},
       [&] { order.push_back(2); });
  s.At(Millis(1), EventTag{EventTag::Kind::kTimer, 9, 3},
       [&] { order.push_back(3); });
  s.At(Millis(2), [&] { order.push_back(4); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 4}));
  // Called only while >= 2 events were enabled at the minimal time.
  EXPECT_EQ(newest.seen_sizes, (std::vector<std::size_t>{3, 2}));
  s.SetStrategy(nullptr);
}

TEST(Scheduler, NullStrategyKeepsDefaultOrder) {
  Scheduler s;
  std::vector<int> order;
  s.At(Millis(1), [&] { order.push_back(1); });
  s.At(Millis(1), [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, NextEventTimeSkipsCancelled) {
  Scheduler s;
  auto a = s.At(Millis(1), [] {});
  s.At(Millis(3), [] {});
  EXPECT_EQ(s.NextEventTime(Millis(99)), Millis(1));
  s.Cancel(a);
  EXPECT_EQ(s.NextEventTime(Millis(99)), Millis(3));
  s.RunAll();
  EXPECT_EQ(s.NextEventTime(Millis(99)), Millis(99));
}

TEST(Scheduler, RunUntilAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.At(Millis(5), [&] { ++fired; });
  s.RunUntil(Millis(3));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.now(), Millis(3));
  s.RunUntil(Millis(10));
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, EventsScheduledInPastFireNow) {
  Scheduler s;
  s.RunUntil(Millis(10));
  bool fired = false;
  s.At(Millis(1), [&] { fired = true; });
  s.RunOne();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), Millis(10));
}

TEST(Scheduler, WheelPoolsEventRecords) {
  Scheduler s;
  // A self-rescheduling chain should reuse one pooled record, not
  // allocate per event.
  std::function<void()> tick;
  int remaining = 1000;
  tick = [&] {
    if (--remaining > 0) s.After(Micros(3), tick);
  };
  s.After(Micros(3), tick);
  s.RunAll();
  EXPECT_EQ(remaining, 0);
  EXPECT_LE(s.pool_allocated(), 4u);
  EXPECT_GE(s.pool_reused(), 990u);
}

TEST(Scheduler, WheelHandlesFarFutureAndSameTickMixes) {
  // Events far past the wheel horizon (overflow heap) must interleave
  // exactly with near ones, and same-timestamp events keep insertion
  // order.
  Scheduler s;
  std::vector<int> order;
  s.At(Seconds(400), [&] { order.push_back(4); });  // beyond ~17s horizon
  s.At(Millis(1), [&] { order.push_back(1); });
  s.At(Seconds(400), [&] { order.push_back(5); });  // same far timestamp
  s.At(Millis(1) + Duration{1}, [&] { order.push_back(2); });  // same tick
  s.At(Seconds(30), [&] { order.push_back(3); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(s.now(), Seconds(400));
}

// Differential parity: the wheel-backed Scheduler and the reference
// must agree on firing order, clock, pending accounting and
// NextEventTime across randomized schedules with nested scheduling,
// cancels (live and stale — stale handles often point at recycled
// records), same-time bursts and far-future overflow times. Any
// divergence would silently re-order a simulation.
TEST(Scheduler, WheelMatchesPriorityQueueOnRandomSchedules) {
  auto run = [](auto core, std::uint64_t seed) {
    using Sched = typename decltype(core)::type;
    Rng rng(seed);
    Sched s;
    std::vector<std::int64_t> log;
    std::vector<std::uint64_t> ids;
    std::function<void()> make = [&] {
      const std::uint64_t kind = rng.below(100);
      Duration d{0};
      if (kind < 25) {
        d = Duration{static_cast<std::int64_t>(rng.below(2048))};
      } else if (kind < 85) {
        d = Duration{static_cast<std::int64_t>(rng.below(20'000'000))};
      } else {
        // Often past the wheel horizon: exercises the overflow heap.
        d = Duration{static_cast<std::int64_t>(rng.below(40'000'000'000))};
      }
      ids.push_back(s.After(d, [&] {
        log.push_back(s.now().count());
        if (rng.chance(0.3)) make();
      }));
    };
    for (int i = 0; i < 150; ++i) make();
    int steps = 0;
    while (!s.empty() && steps < 3000) {
      ++steps;
      const std::uint64_t op = rng.below(100);
      if (op < 10 && !ids.empty()) {
        s.Cancel(ids[rng.below(ids.size())]);  // may be live or stale
        continue;
      }
      if (op < 20) {
        s.RunFor(Duration{static_cast<std::int64_t>(rng.below(5'000'000))});
      } else if (op < 25) {
        log.push_back(s.NextEventTime(s.now()).count());
        continue;
      } else {
        s.RunOne();
      }
      log.push_back(static_cast<std::int64_t>(s.pending()));
      log.push_back(s.empty() ? 1 : 0);
    }
    log.push_back(static_cast<std::int64_t>(s.events_run()));
    log.push_back(static_cast<std::int64_t>(s.events_cancelled()));
    return log;
  };
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    EXPECT_EQ(run(std::type_identity<Scheduler>{}, seed),
              run(std::type_identity<ReferenceScheduler>{}, seed))
        << "wheel and reference diverged at seed " << seed;
  }
}

// ---- Test protocol plumbing ----

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
  void OnStart(Env&) override { started = true; }
  void OnMessage(Env& env, NodeId from, const MessagePtr& m) override {
    received.push_back({from, env.now(), Cast<TestMsg>(m)->tag});
  }
  struct Rx {
    NodeId from;
    TimePoint at;
    int tag;
  };
  bool started = false;
  std::vector<Rx> received;
};

NodeSpec FastSpec() {
  NodeSpec s;
  s.link_jitter = Duration{0};
  return s;
}

TEST(SimNetwork, UnicastDeliversWithLatencyAndCosts) {
  SimNetwork net;
  auto& a = net.AddNode(FastSpec());
  auto& b = net.AddNode(FastSpec());
  auto* rec = new Recorder();
  b.BindProtocol(std::unique_ptr<Protocol>(rec));
  net.StartAll();

  a.Execute(Duration{0},
              [&] { a.Send(b.self(), MakeMessage<TestMsg>(1000, 7)); });
  net.RunFor(Millis(10));

  ASSERT_EQ(rec->received.size(), 1u);
  EXPECT_EQ(rec->received[0].from, a.self());
  EXPECT_EQ(rec->received[0].tag, 7);
  // Lower bound: send CPU (2us + ~5.5us) + 2x link serialization
  // (~8.4us each at 1 Gbps for 1050B) + 50us latency + recv CPU.
  EXPECT_GT(rec->received[0].at, Micros(70));
  EXPECT_LT(rec->received[0].at, Micros(200));
}

TEST(SimNetwork, MulticastFansOutToSubscribersExceptSender) {
  SimNetwork net;
  auto& a = net.AddNode(FastSpec());
  std::vector<Recorder*> recs;
  for (int i = 0; i < 3; ++i) {
    auto& n = net.AddNode(FastSpec());
    auto* r = new Recorder();
    n.BindProtocol(std::unique_ptr<Protocol>(r));
    recs.push_back(r);
    net.Subscribe(n.self(), /*channel=*/5);
  }
  net.Subscribe(a.self(), 5);  // sender subscribed: must not self-deliver
  auto* arec = new Recorder();
  a.BindProtocol(std::unique_ptr<Protocol>(arec));
  net.StartAll();

  a.Execute(Duration{0},
              [&] { a.Multicast(5, MakeMessage<TestMsg>(100, 1)); });
  net.RunFor(Millis(10));

  for (auto* r : recs) EXPECT_EQ(r->received.size(), 1u);
  EXPECT_TRUE(arec->received.empty());
}

TEST(SimNetwork, CpuSaturationQueuesWork) {
  // Offer ~2x the CPU capacity of the receiver and verify the delivery
  // times stretch out (the work is conserved, not dropped).
  SimNetwork net;
  NodeSpec sender = FastSpec();
  sender.infinite_cpu = true;
  auto& a = net.AddNode(sender);
  auto& b = net.AddNode(FastSpec());
  auto* rec = new Recorder();
  b.BindProtocol(std::unique_ptr<Protocol>(rec));
  net.StartAll();

  // Each 8kB message costs b ~2us + 8050*5.3ns = ~45us of CPU. Sending
  // 1000 of them back-to-back takes ~45ms of CPU; the link can carry
  // them in ~8ms. CPU binds.
  a.Execute(Duration{0}, [&] {
    for (int i = 0; i < 1000; ++i) a.Send(b.self(), MakeMessage<TestMsg>(8000, i));
  });
  net.RunFor(Seconds(2));

  ASSERT_EQ(rec->received.size(), 1000u);
  EXPECT_GT(rec->received.back().at, Millis(40));
  const double util = b.TakeCpuUtilisation();
  (void)util;  // utilisation window spans the whole run; just ensure sane
  EXPECT_GT(b.rx_meter().total_bytes(), 8000u * 1000u);
}

TEST(SimNetwork, LossDropsApproximatelyAtConfiguredRate) {
  NetConfig cfg;
  cfg.loss_probability = 0.2;
  cfg.seed = 99;
  SimNetwork net(cfg);
  NodeSpec spec = FastSpec();
  spec.infinite_cpu = true;
  auto& a = net.AddNode(spec);
  auto& b = net.AddNode(spec);
  auto* rec = new Recorder();
  b.BindProtocol(std::unique_ptr<Protocol>(rec));
  net.StartAll();

  const int kN = 5000;
  a.Execute(Duration{0}, [&] {
    for (int i = 0; i < kN; ++i) a.Send(b.self(), MakeMessage<TestMsg>(100, i));
  });
  net.RunFor(Seconds(5));

  const double rate = 1.0 - static_cast<double>(rec->received.size()) / kN;
  EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(SimNetwork, DownNodeDropsMessagesAndDefersTimers) {
  SimNetwork net;
  auto& a = net.AddNode(FastSpec());
  auto& b = net.AddNode(FastSpec());
  auto* rec = new Recorder();
  b.BindProtocol(std::unique_ptr<Protocol>(rec));
  net.StartAll();

  int timer_fired_at_ms = -1;
  b.Execute(Duration{0}, [&] {
    b.SetTimer(Millis(5), [&] {
      timer_fired_at_ms = static_cast<int>(net.now().count() / 1000000);
    });
  });
  net.RunFor(Millis(1));
  b.SetDown(true);

  a.Execute(Duration{0},
              [&] { a.Send(b.self(), MakeMessage<TestMsg>(100, 1)); });
  net.RunFor(Millis(20));  // timer expires while down -> deferred
  EXPECT_TRUE(rec->received.empty());
  EXPECT_EQ(timer_fired_at_ms, -1);

  b.SetDown(false);
  net.RunFor(Millis(5));
  EXPECT_EQ(timer_fired_at_ms, 21);  // fires on resume

  a.Execute(Duration{0},
              [&] { a.Send(b.self(), MakeMessage<TestMsg>(100, 2)); });
  net.RunFor(Millis(10));
  ASSERT_EQ(rec->received.size(), 1u);
  EXPECT_EQ(rec->received[0].tag, 2);
}

TEST(SimNetwork, DeterministicAcrossRuns) {
  auto run = [] {
    NetConfig cfg;
    cfg.seed = 1234;
    cfg.loss_probability = 0.1;
    SimNetwork net(cfg);
    auto& a = net.AddNode();
    auto& b = net.AddNode();
    auto* rec = new Recorder();
    b.BindProtocol(std::unique_ptr<Protocol>(rec));
    net.StartAll();
    a.Execute(Duration{0}, [&] {
      for (int i = 0; i < 200; ++i) a.Send(b.self(), MakeMessage<TestMsg>(500, i));
    });
    net.RunFor(Seconds(1));
    std::string trace;
    for (const auto& rx : rec->received) {
      trace += std::to_string(rx.tag) + "@" + std::to_string(rx.at.count()) + ";";
    }
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimDiskStorage, WritesDrainAtDiskBandwidth) {
  SimNetwork net;
  NodeSpec spec = FastSpec();
  spec.disk_bw_bps = 8e6;  // 1 MB/s to make the math visible
  spec.disk_op_latency = Duration{0};
  auto& n = net.AddNode(spec);
  SimDiskStorage disk(n);

  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    disk.Put(static_cast<InstanceId>(i), paxos::AcceptorRecord{}, 100 * 1000,
             [&] { ++completed; });
  }
  // 10 writes x 100 kB at 1 MB/s = 1 s total, 100 ms each.
  net.RunFor(Millis(501));
  EXPECT_EQ(completed, 5);
  net.RunFor(Millis(600));
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(disk.size(), 10u);
  disk.Trim(5);
  EXPECT_EQ(disk.size(), 5u);
}

TEST(SimDiskStorage, RecordsReadableImmediately) {
  SimNetwork net;
  auto& n = net.AddNode(FastSpec());
  SimDiskStorage disk(n);
  paxos::AcceptorRecord rec;
  rec.promised = 3;
  disk.Put(7, rec, 100, nullptr);
  ASSERT_NE(disk.Get(7), nullptr);
  EXPECT_EQ(disk.Get(7)->promised, 3u);
  EXPECT_EQ(disk.Get(8), nullptr);
}

}  // namespace
}  // namespace mrp::sim
