// Model-based randomized tests: drive InstanceWindow, InstanceLog and
// the simulator Env timer semantics with random operation sequences and
// compare against simple reference models.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/instance_window.h"
#include "common/rand.h"
#include "sim/network.h"

namespace mrp {
namespace {

// Reference model: a map plus a cursor.
struct WindowModel {
  std::map<InstanceId, int> slots;
  InstanceId next = 0;

  bool Insert(InstanceId id, int v) {
    if (id < next || slots.count(id)) return false;
    slots[id] = v;
    return true;
  }
  std::optional<int> Pop() {
    auto it = slots.find(next);
    if (it == slots.end()) return std::nullopt;
    const int v = it->second;
    slots.erase(it);
    ++next;
    return v;
  }
  std::vector<int> Skip(InstanceId count) {
    std::vector<int> dropped;
    const InstanceId end = next + count;
    for (auto it = slots.begin(); it != slots.end() && it->first < end;) {
      dropped.push_back(it->second);
      it = slots.erase(it);
    }
    next = end;
    return dropped;
  }
  std::size_t buffered() const { return slots.size(); }
  InstanceId FirstGap() const {
    InstanceId g = next;
    while (slots.count(g)) ++g;
    return g;
  }
};

class WindowModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(WindowModelProperty, RandomOpsMatchReferenceModel) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  InstanceWindow<int> real;
  WindowModel model;

  for (int step = 0; step < 20000; ++step) {
    const auto op = rng.below(100);
    if (op < 55) {
      // Insert near the cursor (mix of stale, present, fresh ids).
      const InstanceId id =
          model.next + rng.below(20) - std::min<InstanceId>(model.next, 3);
      const int v = static_cast<int>(step);
      ASSERT_EQ(real.Insert(id, v), model.Insert(id, v)) << "step " << step;
    } else if (op < 90) {
      const int* peek = real.Peek();
      auto expect = model.Pop();
      if (expect.has_value()) {
        ASSERT_NE(peek, nullptr) << "step " << step;
        ASSERT_EQ(real.Pop(), *expect) << "step " << step;
      } else {
        ASSERT_EQ(peek, nullptr) << "step " << step;
      }
    } else {
      const InstanceId count = rng.below(8);
      auto dropped_real = real.Skip(count);
      auto dropped_model = model.Skip(count);
      ASSERT_EQ(dropped_real, dropped_model) << "step " << step;
    }
    ASSERT_EQ(real.next(), model.next) << "step " << step;
    ASSERT_EQ(real.buffered(), model.buffered()) << "step " << step;
    ASSERT_EQ(real.FirstGap(), model.FirstGap()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowModelProperty, ::testing::Values(1, 2, 3, 4));

// InstanceLog against a std::map: inserts mostly append or land within a
// window of the back (as Phase 2 does), some land far behind or below
// the front (stale retransmissions); Trim follows a rising watermark.
class LogModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(LogModelProperty, RandomOpsMatchStdMap) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  InstanceLog<int> real;
  std::map<InstanceId, int> model;
  InstanceId back = 0, trimmed = 0;

  for (int step = 0; step < 20000; ++step) {
    const auto op = rng.below(100);
    const int v = static_cast<int>(step);
    if (op < 40) {
      back += 1 + rng.below(20);  // skips leave gaps
      real[back] = v;
      model[back] = v;
    } else if (op < 60) {
      const InstanceId id = back - std::min<InstanceId>(back, rng.below(64));
      real[id] = v;
      model[id] = v;
    } else if (op < 63) {
      const InstanceId id = rng.below(back + 1);
      real[id] = v;
      model[id] = v;
    } else if (op < 80) {
      const InstanceId id = rng.below(back + 30);
      const int* got = real.Find(id);
      auto it = model.find(id);
      ASSERT_EQ(got != nullptr, it != model.end()) << "step " << step;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second) << "step " << step;
      }
    } else if (op < 92) {
      trimmed = std::max(trimmed, back > 400 ? back - 400 + rng.below(100) : 0);
      real.Trim(trimmed);
      model.erase(model.begin(), model.lower_bound(trimmed));
    } else {
      const InstanceId from = rng.below(back + 10);
      auto it = real.LowerBound(from);
      for (auto mit = model.lower_bound(from); mit != model.end(); ++mit, ++it) {
        ASSERT_NE(it, real.end()) << "step " << step;
        ASSERT_EQ(it->id, mit->first) << "step " << step;
        ASSERT_EQ(it->value, mit->second) << "step " << step;
      }
      ASSERT_EQ(it, real.end()) << "step " << step;
    }
    ASSERT_EQ(real.size(), model.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogModelProperty, ::testing::Values(1, 2, 3, 4));

// ---- Env timer semantics on the simulator ----

class TimerHarness final : public Protocol {
 public:
  void OnStart(Env&) override {}
  void OnMessage(Env&, NodeId, const MessagePtr&) override {}
};

TEST(SimTimers, CancelBeforeFireSuppresses) {
  sim::SimNetwork net;
  auto& node = net.AddNode();
  node.BindProtocol(std::make_unique<TimerHarness>());
  net.StartAll();

  int fired = 0;
  TimerId keep = 0, cancel = 0;
  node.Execute(Duration{0}, [&] {
    keep = node.SetTimer(Millis(5), [&] { fired += 1; });
    cancel = node.SetTimer(Millis(5), [&] { fired += 100; });
    node.CancelTimer(cancel);
  });
  net.RunFor(Millis(20));
  EXPECT_EQ(fired, 1);
  (void)keep;
}

TEST(SimTimers, ManyTimersFireInOrder) {
  sim::SimNetwork net;
  sim::NodeSpec spec;
  spec.infinite_cpu = true;  // zero processing cost: pure timer ordering
  auto& node = net.AddNode(spec);
  node.BindProtocol(std::make_unique<TimerHarness>());
  net.StartAll();

  std::vector<int> order;
  node.Execute(Duration{0}, [&] {
    for (int i = 20; i >= 1; --i) {
      node.SetTimer(Millis(i), [&order, i] { order.push_back(i); });
    }
  });
  net.RunFor(Millis(50));
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i + 1);
}

TEST(SimTimers, TimerSurvivesAndDefersAcrossDowntime) {
  sim::SimNetwork net;
  auto& node = net.AddNode();
  node.BindProtocol(std::make_unique<TimerHarness>());
  net.StartAll();

  std::vector<long long> fire_ms;
  node.Execute(Duration{0}, [&] {
    for (int i = 1; i <= 3; ++i) {
      node.SetTimer(Millis(i * 10), [&fire_ms, &net] {
        fire_ms.push_back(net.now().count() / 1000000);
      });
    }
  });
  net.RunFor(Millis(15));  // first timer fired
  node.SetDown(true);
  net.RunFor(Millis(30));  // second and third expire while down
  node.SetDown(false);
  net.RunFor(Millis(5));
  ASSERT_EQ(fire_ms.size(), 3u);
  EXPECT_EQ(fire_ms[0], 10);
  EXPECT_EQ(fire_ms[1], 45);  // deferred to the resume point
  EXPECT_EQ(fire_ms[2], 45);
}

TEST(SimTimers, TimerCancelledWhileDownDoesNotFireOnResume) {
  sim::SimNetwork net;
  auto& node = net.AddNode();
  node.BindProtocol(std::make_unique<TimerHarness>());
  net.StartAll();

  std::vector<int> fired;
  TimerId expired_then_cancelled = kNoTimer, cancelled_before_expiry = kNoTimer;
  node.Execute(Duration{0}, [&] {
    expired_then_cancelled =
        node.SetTimer(Millis(10), [&fired] { fired.push_back(1); });
    node.SetTimer(Millis(20), [&fired] { fired.push_back(2); });
    cancelled_before_expiry =
        node.SetTimer(Millis(40), [&fired] { fired.push_back(3); });
  });
  net.RunFor(Millis(5));
  node.SetDown(true);
  net.RunFor(Millis(25));  // timers 1 and 2 expire while down
  node.CancelTimer(expired_then_cancelled);
  node.CancelTimer(cancelled_before_expiry);
  net.RunFor(Millis(20));
  EXPECT_TRUE(fired.empty());
  node.SetDown(false);
  net.RunFor(Millis(20));
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(SimTimers, ReplaceProtocolDropsOldTimers) {
  sim::SimNetwork net;
  auto& node = net.AddNode();
  node.BindProtocol(std::make_unique<TimerHarness>());
  net.StartAll();

  std::vector<int> fired;
  node.Execute(Duration{0}, [&] {
    node.SetTimer(Millis(2), [&fired] { fired.push_back(1); });
    node.SetTimer(Millis(10), [&fired] { fired.push_back(2); });
    node.SetTimer(Millis(20), [&fired] { fired.push_back(3); });
  });
  net.RunFor(Millis(5));  // timer 1 fires; timer 2 will expire while down
  node.SetDown(true);
  net.RunFor(Millis(10));
  node.ReplaceProtocol(std::make_unique<TimerHarness>());
  node.SetDown(false);
  node.Execute(Duration{0}, [&] {
    node.SetTimer(Millis(1), [&fired] { fired.push_back(4); });
  });
  net.RunFor(Millis(30));
  EXPECT_EQ(fired, (std::vector<int>{1, 4}));
}

TEST(SimTimers, CancelAfterFireIsNoOp) {
  sim::SimNetwork net;
  auto& node = net.AddNode();
  node.BindProtocol(std::make_unique<TimerHarness>());
  net.StartAll();

  int fired = 0;
  TimerId first = kNoTimer;
  node.Execute(Duration{0}, [&] {
    first = node.SetTimer(Millis(1), [&] { fired += 1; });
  });
  net.RunFor(Millis(5));
  ASSERT_EQ(fired, 1);
  // Armed after `first` fired, so it may reuse that timer's slot.
  TimerId second = kNoTimer;
  node.Execute(Duration{0}, [&] {
    second = node.SetTimer(Millis(1), [&] { fired += 10; });
    node.CancelTimer(first);
  });
  net.RunFor(Millis(5));
  EXPECT_NE(first, second);
  EXPECT_EQ(fired, 11);
}

TEST(SimTimers, CancelNoTimerIsNoOp) {
  sim::SimNetwork net;
  auto& node = net.AddNode();
  node.BindProtocol(std::make_unique<TimerHarness>());
  net.StartAll();

  int fired = 0;
  node.Execute(Duration{0}, [&] {
    node.SetTimer(Millis(1), [&] { fired += 1; });
    node.CancelTimer(kNoTimer);
  });
  node.CancelTimer(kNoTimer);
  net.RunFor(Millis(5));
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace mrp
