// Real-runtime tests: wire codec roundtrips, the event loop, and full
// Multi-Ring Paxos clusters running on real threads — over the
// in-process bus and over UDP with genuine ip-multicast on loopback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <variant>
#include <vector>

#include "multiring/merge_learner.h"
#include "multiring/sim_deployment.h"
#include "paxos/roles.h"
#include "net/codec.h"
#include "ringpaxos/messages.h"
#include "ringpaxos/proposer.h"
#include "ringpaxos/ring_node.h"
#include "runtime/node_runtime.h"
#include "smr/command.h"

namespace mrp::runtime {
namespace {

using namespace ringpaxos;  // NOLINT
using paxos::ClientMsg;
using paxos::Value;

ClientMsg SampleMsg() {
  ClientMsg m;
  m.group = 3;
  m.proposer = 9;
  m.seq = 77;
  m.sent_at = Millis(5);
  m.payload = Bytes{1, 2, 3, 4};
  m.payload_size = 4;
  return m;
}

template <typename T>
std::shared_ptr<const T> Roundtrip(const T& msg) {
  Bytes frame = net::EncodeMessage(msg);
  EXPECT_FALSE(frame.empty());
  MessagePtr decoded = net::DecodeMessage(frame);
  EXPECT_NE(decoded, nullptr);
  auto typed = std::dynamic_pointer_cast<const T>(decoded);
  EXPECT_NE(typed, nullptr);
  return typed;
}

TEST(Codec, SubmitRoundtrip) {
  auto out = Roundtrip(Submit{4, SampleMsg()});
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->ring, 4u);
  EXPECT_EQ(out->msg, SampleMsg());
}

TEST(Codec, P2ARoundtrip) {
  Value v = Value::Batch({SampleMsg(), SampleMsg()});
  P2A msg{1, 7, 1234, 99, v, {{10, 11}, {12, 13}}, {0, 1, 2}};
  auto out = Roundtrip(msg);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->round, 7u);
  EXPECT_EQ(out->instance, 1234u);
  EXPECT_EQ(out->vid, 99u);
  EXPECT_EQ(out->value, v);
  ASSERT_EQ(out->decided.size(), 2u);
  EXPECT_EQ(out->decided[1].instance, 12u);
  EXPECT_EQ(out->layout, (std::vector<NodeId>{0, 1, 2}));
}

TEST(Codec, SkipValueRoundtrip) {
  P2A msg{2, 3, 500, 42, Value::Skip(1000), {}, {5, 6}};
  auto out = Roundtrip(msg);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->value.is_skip());
  EXPECT_EQ(out->value.skip_count, 1000u);
}

TEST(Codec, ControlMessagesRoundtrip) {
  EXPECT_EQ(Roundtrip(P2B{1, 2, 3, 4, 5})->votes, 5u);
  EXPECT_EQ(Roundtrip(SubmitAck{1, 2, 42})->up_to_seq, 42u);
  EXPECT_EQ(Roundtrip(Heartbeat{1, 9, 3})->coordinator, 3u);
  EXPECT_EQ(Roundtrip(HeartbeatAck{1, 9})->round, 9u);
  EXPECT_EQ(Roundtrip(LearnReq{1, 100, 16})->from_instance, 100u);
  EXPECT_EQ(Roundtrip(DeliveryAck{1, 2, 7})->seq, 7u);
  auto dec = Roundtrip(DecisionMsg{1, {{5, 6}}});
  ASSERT_EQ(dec->decided.size(), 1u);
  EXPECT_EQ(dec->decided[0].vid, 6u);
}

TEST(Codec, P1MessagesRoundtrip) {
  EXPECT_EQ(Roundtrip(P1A{1, 8, 55, {2, 3}})->from_instance, 55u);
  P1B p1b{1, 8, {{10, 2, Value::Batch({SampleMsg()})}}};
  auto out = Roundtrip(p1b);
  ASSERT_EQ(out->accepted.size(), 1u);
  EXPECT_EQ(out->accepted[0].instance, 10u);
  EXPECT_EQ(out->accepted[0].vrnd, 2u);
}

TEST(Codec, LearnRepRoundtrip) {
  LearnRep rep{3, {{7, 8, Value::Skip(2)}, {9, 10, Value::Batch({SampleMsg()})}}};
  auto out = Roundtrip(rep);
  ASSERT_EQ(out->entries.size(), 2u);
  EXPECT_TRUE(out->entries[0].value.is_skip());
  EXPECT_EQ(out->entries[1].value.msgs.size(), 1u);
}

TEST(Codec, SmrResponseRoundtrip) {
  smr::Response resp{11, 2, true, {{5, "five"}, {6, "six"}}};
  auto out = Roundtrip(resp);
  ASSERT_EQ(out->rows.size(), 2u);
  EXPECT_EQ(out->rows[1].second, "six");
}

TEST(Codec, GarbageRejected) {
  EXPECT_EQ(net::DecodeMessage(Bytes{}), nullptr);
  EXPECT_EQ(net::DecodeMessage(Bytes{255, 1, 2}), nullptr);
  Bytes truncated = net::EncodeMessage(P2A{1, 2, 3, 4, Value::Skip(1), {}, {1}});
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(net::DecodeMessage(truncated), nullptr);
}

TEST(EventLoop, TasksAndTimers) {
  EventLoop loop;
  loop.Start();
  std::atomic<int> counter{0};
  loop.Post([&] { counter += 1; });
  loop.SetTimer(Millis(20), [&] { counter += 10; });
  auto cancelled = loop.SetTimer(Millis(30), [&] { counter += 100; });
  loop.CancelTimer(cancelled);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(counter.load(), 11);
  loop.Stop();
}

// Polls `pred` every millisecond until it holds or about `timeout` has
// passed.
template <typename Pred>
bool WaitFor(Pred pred,
             std::chrono::milliseconds timeout = std::chrono::seconds(5)) {
  for (auto waited = std::chrono::milliseconds(0); !pred();
       waited += std::chrono::milliseconds(1)) {
    if (waited > timeout) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(EventLoop, CancelOneOfManyPendingTimers) {
  EventLoop loop;
  loop.Start();
  std::atomic<int> fired_mask{0};
  std::vector<TimerId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(loop.SetTimer(Millis(100 + i), [&fired_mask, i] {
      fired_mask.fetch_or(1 << i);
    }));
  }
  loop.CancelTimer(ids[4]);
  constexpr int kAllButFour = 0x3ff & ~(1 << 4);
  EXPECT_TRUE(WaitFor([&] { return fired_mask.load() == kAllButFour; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired_mask.load(), kAllButFour);
  loop.Stop();
}

TEST(EventLoop, StaleCancelIsNoOp) {
  EventLoop loop;
  loop.Start();
  std::atomic<int> counter{0};
  const TimerId first = loop.SetTimer(Millis(1), [&] { counter += 1; });
  ASSERT_TRUE(WaitFor([&] { return counter.load() == 1; }));
  // Armed after `first` fired, so it may reuse that timer's record.
  const TimerId second = loop.SetTimer(Millis(10), [&] { counter += 10; });
  loop.CancelTimer(first);
  EXPECT_NE(first, second);
  EXPECT_TRUE(WaitFor([&] { return counter.load() == 11; }));
  loop.Stop();
}

TEST(EventLoop, CancelFromAnotherTimersCallback) {
  EventLoop loop;
  loop.Start();
  std::atomic<int> counter{0};
  std::atomic<TimerId> victim{kNoTimer};
  // Same delay: the canceller (armed first) runs first and must stop the
  // victim, which is already due by then.
  loop.SetTimer(Millis(100), [&] {
    loop.CancelTimer(victim.load());
    counter += 1;
  });
  victim = loop.SetTimer(Millis(100), [&] { counter += 100; });
  loop.SetTimer(Millis(150), [&] { counter += 10; });
  EXPECT_TRUE(WaitFor([&] { return counter.load() >= 11; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(counter.load(), 11);
  loop.Stop();
}

TEST(EventLoop, EarlierTimerFromAnotherThreadWakesLoop) {
  EventLoop loop;
  loop.Start();
  std::atomic<bool> late_fired{false};
  std::atomic<bool> early_fired{false};
  loop.SetTimer(Seconds(10), [&] { late_fired = true; });
  // Let the loop go to sleep until the 10 s deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const TimePoint armed = loop.now();
  std::atomic<std::int64_t> fired_at{0};
  loop.SetTimer(Millis(20), [&] {
    fired_at = loop.now().count();
    early_fired = true;
  });
  ASSERT_TRUE(WaitFor([&] { return early_fired.load(); }));
  const Duration waited = Duration{fired_at.load()} - armed;
  EXPECT_GE(waited, Millis(20));
  EXPECT_LT(waited, Seconds(2));
  EXPECT_FALSE(late_fired.load());
  loop.Stop();
}

TEST(EventLoop, WatchedFdWakesSleepingLoopOnItsThread) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  EventLoop loop;
  std::atomic<bool> fired{false};
  std::atomic<bool> on_loop{false};
  loop.Watch(pipe_fds[0], [&] {
    char c;
    EXPECT_EQ(::read(pipe_fds[0], &c, 1), 1);
    on_loop = loop.on_loop_thread();
    fired = true;
  });
  loop.Start();
  EXPECT_THROW(loop.Watch(pipe_fds[0], [] {}), std::logic_error);
  loop.SetTimer(Seconds(10), [] {});
  // Let the loop go to sleep until the 10 s deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
  EXPECT_TRUE(WaitFor([&] { return fired.load(); }, std::chrono::seconds(1)));
  EXPECT_TRUE(on_loop.load());
  loop.Stop();
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(EventLoop, PostFromAnotherThreadWakesLoopWithNoTimer) {
  EventLoop loop;
  loop.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<bool> ran{false};
  std::thread poster([&] { loop.Post([&] { ran = true; }); });
  poster.join();
  EXPECT_TRUE(WaitFor([&] { return ran.load(); }, std::chrono::seconds(1)));
  loop.Stop();
}

TEST(EventLoop, StopWakesSleepingLoop) {
  EventLoop loop;
  loop.Start();
  loop.SetTimer(Seconds(10), [] {});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const TimePoint t0 = loop.now();
  loop.Stop();
  EXPECT_LT(loop.now() - t0, Millis(100));
}

// ---- Full cluster over real threads ----

// 2 rings x (2 members + 1 spare); the same spec drives the simulator
// (as the spec part of DeploymentOptions) and the runtime below.
template <typename Spec = multiring::DeploymentSpec>
Spec TwoRingSpec() {
  Spec spec;
  spec.n_rings = 2;
  spec.ring_size = 2;
  spec.n_spares = 1;
  spec.lambda_per_sec = 2000;
  return spec;
}

// The spec's roles, on either path: a merge learner of both rings, then
// one closed-loop proposer per ring.
template <typename Deployment>
void AddRoles(Deployment& d, multiring::MergeLearner::Options mo) {
  mo.send_delivery_acks = true;
  d.AddMergeLearner({0, 1}, std::move(mo));
  for (int r = 0; r < 2; ++r) {
    ProposerConfig pc;
    pc.max_outstanding = 4;
    pc.payload_size = 1024;
    pc.retry_timeout = Millis(100);
    d.AddProposer(r, pc);
  }
}

struct ClusterResult {
  std::uint64_t delivered = 0;
  bool merged_two_groups = false;
  // Threads the cluster's Start() added to the process.
  std::size_t threads_started = 0;
  // Every delivery ran on the learner node's loop thread.
  bool delivered_on_loop = true;
};

// Threads of this process: the entries of /proc/self/task.
std::size_t ThreadCount() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

// Runs `cluster` for `run_ms` with the spec's roles added.
ClusterResult RunMultiRingCluster(LocalCluster& cluster, int run_ms) {
  multiring::MergeLearner::Options mo;
  const auto learner = static_cast<NodeId>(cluster.size());  // added first
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> saw_g0{false}, saw_g1{false}, off_loop{false};
  mo.on_deliver = [&](GroupId g, const ClientMsg&) {
    ++delivered;
    if (g == 0) saw_g0 = true;
    if (g == 1) saw_g1 = true;
    if (!cluster.node(learner).loop().on_loop_thread()) off_loop = true;
  };
  AddRoles(cluster, std::move(mo));
  const std::size_t threads_before = ThreadCount();
  cluster.Start();
  const std::size_t threads_started = ThreadCount() - threads_before;
  std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
  cluster.Stop();
  return {delivered.load(), saw_g0.load() && saw_g1.load(), threads_started,
          !off_loop.load()};
}

TEST(DeploymentSpec, SimulatorAndLocalClusterDeriveOneCluster) {
  multiring::SimDeployment sim(TwoRingSpec<multiring::DeploymentOptions>());
  AddRoles(sim, {});
  LocalCluster cluster(TwoRingSpec(), LocalCluster::Kind::kInProc);
  for (int r = 0; r < 2; ++r) {
    const RingConfig& a = sim.ring(r);
    const RingConfig b = cluster.ring(r);
    EXPECT_EQ(a.ring, b.ring);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.data_channel, b.data_channel);
    EXPECT_EQ(a.control_channel, b.control_channel);
    EXPECT_EQ(a.ring_members, b.ring_members);
    EXPECT_EQ(a.spares, b.spares);
    EXPECT_EQ(a.lambda_per_sec, b.lambda_per_sec);
  }
  EXPECT_EQ(sim.ring(1).ring_members, (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(sim.ring(1).spares, (std::vector<NodeId>{5}));
  EXPECT_EQ(sim.ring(1).control_channel, 3u);

  // The in-proc run gets the same node ids for the same roles, and
  // delivers from both groups.
  const auto result = RunMultiRingCluster(cluster, 1000);
  const NodeId learner = sim.learner_node(0)->self();
  EXPECT_EQ(learner, 6u);
  EXPECT_NE(cluster.node(learner).protocol_as<multiring::MergeLearner>(),
            nullptr);
  for (std::size_t r = 0; r < 2; ++r) {
    const NodeId proposer = sim.proposer_node(r)->self();
    EXPECT_EQ(proposer, learner + 1 + r);
    EXPECT_NE(cluster.node(proposer).protocol_as<Proposer>(), nullptr);
  }
  EXPECT_EQ(cluster.size(), 9u);
  EXPECT_GT(result.delivered, 100u);
  EXPECT_TRUE(result.merged_two_groups);
}

TEST(LocalClusterInProc, MultiRingDeliversOverThreads) {
  LocalCluster cluster(TwoRingSpec(), LocalCluster::Kind::kInProc);
  const auto result = RunMultiRingCluster(cluster, 1000);
  EXPECT_GT(result.delivered, 100u);
  EXPECT_TRUE(result.merged_two_groups);
  EXPECT_EQ(result.threads_started, cluster.size());
  EXPECT_TRUE(result.delivered_on_loop);
}

TEST(LocalClusterUdp, MultiRingDeliversOverRealMulticast) {
  UdpConfig udp;
  udp.base_port = 47100;
  udp.mcast_port_base = 47600;
  udp.mcast_prefix = "239.255.81.";
  LocalCluster cluster(TwoRingSpec(), LocalCluster::Kind::kUdp, udp);
  const auto result = RunMultiRingCluster(cluster, 1500);
  EXPECT_GT(result.delivered, 50u);
  EXPECT_TRUE(result.merged_two_groups);
  // One thread per node: each node's loop also reads its sockets.
  EXPECT_EQ(result.threads_started, cluster.size());
  EXPECT_TRUE(result.delivered_on_loop);
}

}  // namespace
}  // namespace mrp::runtime

// ---- FileStorage: real buffered-log acceptor storage ----
#include <cstdio>

#include "runtime/file_storage.h"

namespace mrp::runtime {
namespace {

std::string TempLogPath(const char* tag) {
  return std::string("/tmp/mrp_filestorage_") + tag + "_" +
         std::to_string(::getpid()) + ".log";
}

TEST(FileStorage, PutGetTrim) {
  const std::string path = TempLogPath("basic");
  std::remove(path.c_str());
  FileStorage st(path);
  paxos::AcceptorRecord rec;
  rec.promised = 3;
  rec.accepted_round = 3;
  rec.accepted = paxos::Value::Skip(5);
  bool done = false;
  st.Put(7, rec, 100, [&] { done = true; });
  EXPECT_TRUE(done);  // buffered writes complete synchronously
  ASSERT_NE(st.Get(7), nullptr);
  EXPECT_EQ(st.Get(7)->promised, 3u);
  EXPECT_TRUE(st.Get(7)->accepted->is_skip());
  st.Put(9, rec, 100, nullptr);
  st.Trim(8);
  EXPECT_EQ(st.Get(7), nullptr);
  EXPECT_NE(st.Get(9), nullptr);
  EXPECT_GT(st.bytes_written(), 0u);
  std::remove(path.c_str());
}

TEST(FileStorage, ReplayAfterRestart) {
  const std::string path = TempLogPath("replay");
  std::remove(path.c_str());
  {
    FileStorage st(path);
    for (InstanceId i = 0; i < 20; ++i) {
      paxos::AcceptorRecord rec;
      rec.promised = static_cast<Round>(i + 1);
      rec.accepted_round = static_cast<Round>(i + 1);
      paxos::ClientMsg m;
      m.proposer = 5;
      m.seq = i;
      m.payload = Bytes{1, 2, 3};
      m.payload_size = 3;
      rec.accepted = paxos::Value::Batch({m});
      st.Put(i, std::move(rec), 100, nullptr);
    }
    // Overwrite instance 4 with a higher round: replay keeps the latest.
    paxos::AcceptorRecord rec;
    rec.promised = 99;
    st.Put(4, rec, 24, nullptr);
    st.Flush();
  }
  FileStorage st(path);
  EXPECT_EQ(st.Load(), 21u);
  EXPECT_EQ(st.size(), 20u);
  ASSERT_NE(st.Get(13), nullptr);
  EXPECT_EQ(st.Get(13)->accepted->msgs[0].seq, 13u);
  EXPECT_EQ(st.Get(4)->promised, 99u);
  EXPECT_FALSE(st.Get(4)->accepted.has_value());
  std::remove(path.c_str());
}

TEST(FileStorage, TruncatedTailIgnored) {
  const std::string path = TempLogPath("trunc");
  std::remove(path.c_str());
  {
    FileStorage st(path);
    paxos::AcceptorRecord rec;
    rec.promised = 1;
    st.Put(0, rec, 24, nullptr);
    st.Put(1, rec, 24, nullptr);
    st.Flush();
  }
  // Chop a few bytes off the end (simulated crash mid-write).
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_EQ(::truncate(path.c_str(), size - 3), 0);
    std::fclose(f);
  }
  FileStorage st(path);
  EXPECT_EQ(st.Load(), 1u);  // the complete first record survives
  EXPECT_NE(st.Get(0), nullptr);
  EXPECT_EQ(st.Get(1), nullptr);
  std::remove(path.c_str());
}

TEST(FileStorage, DrivesARealRecoverableRing) {
  // An in-proc cluster whose acceptors persist to real log files.
  const std::string p0 = TempLogPath("ring0");
  const std::string p1 = TempLogPath("ring1");
  std::remove(p0.c_str());
  std::remove(p1.c_str());
  {
    LocalCluster cluster(LocalCluster::Kind::kInProc);
    multiring::DeploymentSpec spec;  // one ring of two members
    spec.lambda_per_sec = 0;
    const RingConfig rc = spec.Ring(0);
    FileStorage st0(p0), st1(p1);
    cluster.AddNode(std::make_unique<RingNode>(rc, &st0), {0, 1});
    cluster.AddNode(std::make_unique<RingNode>(rc, &st1), {0, 1});
    std::atomic<std::uint64_t> delivered{0};
    multiring::MergeLearner::Options mo;
    LearnerOptions lo;
    lo.ring = rc;
    mo.groups.push_back(std::move(lo));
    mo.send_delivery_acks = true;
    mo.on_deliver = [&](GroupId, const ClientMsg&) { ++delivered; };
    cluster.AddNode(
        std::make_unique<multiring::MergeLearner>(std::move(mo)), {0, 1});
    ProposerConfig pc;
    pc.ring = 0;
    pc.coordinator = 0;
    pc.max_outstanding = 4;
    pc.payload_size = 512;
    cluster.AddNode(std::make_unique<Proposer>(pc), {1});
    cluster.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    cluster.Stop();
    EXPECT_GT(delivered.load(), 50u);
    EXPECT_GT(st0.bytes_written(), 1000u);
    EXPECT_GT(st1.bytes_written(), 1000u);
  }
  // The logs replay.
  FileStorage replay(p0);
  EXPECT_GT(replay.Load(), 10u);
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

}  // namespace
}  // namespace mrp::runtime

// ---- Codec coverage for catch-up and classic Paxos ----
namespace mrp::runtime {
namespace {

TEST(Codec, TrimNoticeRoundtrip) {
  auto out = Roundtrip(TrimNotice{2, 100, 500});
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->low_watermark, 100u);
  EXPECT_EQ(out->high_watermark, 500u);
}

TEST(Codec, ClassicPaxosRoundtrips) {
  EXPECT_EQ(Roundtrip(paxos::SubmitReq{SampleMsg()})->msg, SampleMsg());
  EXPECT_EQ(Roundtrip(paxos::Phase1A{7, 3})->round, 3u);
  auto p1b = Roundtrip(paxos::Phase1B{7, 3, 2, Value::Batch({SampleMsg()})});
  ASSERT_NE(p1b, nullptr);
  EXPECT_EQ(p1b->accepted_round, 2u);
  ASSERT_TRUE(p1b->accepted.has_value());
  EXPECT_EQ(p1b->accepted->msgs.size(), 1u);
  auto p1b_empty = Roundtrip(paxos::Phase1B{7, 3, 0, std::nullopt});
  ASSERT_NE(p1b_empty, nullptr);
  EXPECT_FALSE(p1b_empty->accepted.has_value());
  EXPECT_EQ(Roundtrip(paxos::Phase2A{7, 3, Value::Skip(9)})->value.skip_count, 9u);
  EXPECT_EQ(Roundtrip(paxos::Phase2B{7, 3})->instance, 7u);
  auto dec = Roundtrip(paxos::DecisionMsg{7, Value::Batch({SampleMsg()}), 5});
  ASSERT_NE(dec, nullptr);
  EXPECT_EQ(dec->group, 5u);
  EXPECT_EQ(Roundtrip(paxos::LearnReq{11})->from_instance, 11u);
}

TEST(LocalClusterUdp, PaxosBackedGroupOverRealSockets) {
  // A plain-Paxos group running over real UDP: proposer + 3 acceptors +
  // a merge learner with a paxos::PaxosGroupSource, all separate
  // endpoints.
  UdpConfig udp;
  udp.base_port = 49100;
  udp.mcast_port_base = 49600;
  udp.mcast_prefix = "239.255.85.";
  LocalCluster cluster(LocalCluster::Kind::kUdp, udp);

  paxos::PaxosConfig pc;
  pc.decision_channel = 0;
  pc.group = 1;
  pc.lambda_per_sec = 500;
  pc.proposers = {0};
  pc.acceptors = {1, 2, 3};
  auto prop = std::make_unique<paxos::PaxosProposer>(pc, 0);
  auto* prop_raw = prop.get();
  cluster.AddNode(std::move(prop), {});
  for (int i = 0; i < 3; ++i) {
    cluster.AddNode(std::make_unique<paxos::PaxosAcceptor>(), {});
  }
  multiring::MergeLearner::Options mo;
  std::atomic<std::uint64_t> delivered{0};
  mo.on_deliver = [&](GroupId, const ClientMsg&) { ++delivered; };
  paxos::PaxosGroupSource::Options po;
  po.group = 1;
  po.proposers = {0};
  mo.sources.push_back(std::make_unique<paxos::PaxosGroupSource>(po));
  cluster.AddNode(std::make_unique<multiring::MergeLearner>(std::move(mo)), {0});
  cluster.Start();

  // Drive submissions from the proposer's loop.
  auto& pnode = cluster.node(0);
  for (int i = 0; i < 20; ++i) {
    pnode.loop().Post([&pnode, prop_raw, i] {
      ClientMsg m;
      m.proposer = 0;
      m.seq = static_cast<std::uint64_t>(i + 1);
      m.sent_at = pnode.now();
      m.payload = Bytes{9, 9, 9};
      m.payload_size = 3;
      prop_raw->Submit(pnode, std::move(m));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster.Stop();
  EXPECT_EQ(delivered.load(), 20u);
}

double ResidentMb() {
  long pages_total = 0, pages_resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = 0;
  }
  std::fclose(f);
  const auto page = static_cast<double>(::sysconf(_SC_PAGESIZE));
  return static_cast<double>(pages_resident) * page / (1024.0 * 1024.0);
}

TEST(UdpTransport, RetainedFramesAreRightSized) {
  // Every received message is kept alive, and each one's payload views
  // its receive frame. Frames sized to their datagram keep that cheap; a
  // max-size (60 kB) frame per message would pin ~117 MB here.
  constexpr int kMsgs = 2000;
  UdpConfig cfg;
  cfg.base_port = 49300;
  cfg.mcast_port_base = 49800;
  cfg.mcast_prefix = "239.255.87.";
  UdpTransport sender(0, cfg);
  UdpTransport receiver(1, cfg);
  receiver.Subscribe(0);
  std::mutex mu;
  std::vector<MessagePtr> kept;
  kept.reserve(kMsgs);
  receiver.SetReceiver([&](NodeId, MessagePtr m) {
    std::scoped_lock lock(mu);
    kept.push_back(std::move(m));
  });
  receiver.Start();
  const double rss_before = ResidentMb();

  for (int i = 0; i < kMsgs; ++i) {
    ClientMsg m = SampleMsg();
    m.seq = static_cast<std::uint64_t>(i);
    auto submit = MakeMessage<Submit>(0, std::move(m));
    // Half unicast, half multicast: both send paths, both receive sockets.
    if (i % 2 == 0) {
      sender.Send(1, std::move(submit));
    } else {
      sender.Multicast(0, std::move(submit));
    }
    if (i % 20 == 19) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int waited = 0; waited < 200; ++waited) {
    {
      std::scoped_lock lock(mu);
      if (kept.size() == kMsgs) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  receiver.Stop();

  EXPECT_EQ(sender.tx_frames(), static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(sender.tx_batches(), sender.tx_frames());
  ASSERT_GE(kept.size(), static_cast<std::size_t>(kMsgs * 3 / 4))
      << "loopback lost frames";
  for (const auto& m : kept) {
    const auto* submit = Cast<Submit>(m);
    ASSERT_NE(submit, nullptr);
    EXPECT_FALSE(submit->msg.payload.owning());  // still a view into its frame
    EXPECT_EQ(submit->msg.payload, SampleMsg().payload);
  }
  EXPECT_LT(ResidentMb() - rss_before, 20.0);
}

}  // namespace
}  // namespace mrp::runtime

namespace mrp::runtime {
namespace {

TEST(FileStorage, CompactShrinksLogAndStaysReplayable) {
  const std::string path = TempLogPath("compact");
  std::remove(path.c_str());
  {
    FileStorage st(path);
    paxos::AcceptorRecord rec;
    rec.promised = 1;
    rec.accepted_round = 1;
    rec.accepted = paxos::Value::Skip(1);
    for (InstanceId i = 0; i < 500; ++i) st.Put(i, rec, 50, nullptr);
    const auto before = st.bytes_written();
    st.Trim(450);  // keep the last 50
    ASSERT_TRUE(st.Compact());
    EXPECT_EQ(st.compactions(), 1u);
    EXPECT_EQ(st.size(), 50u);
    // Appending still works after compaction.
    st.Put(600, rec, 50, nullptr);
    st.Flush();
    EXPECT_GT(before, 0u);
  }
  FileStorage replay(path);
  EXPECT_EQ(replay.Load(), 51u);
  EXPECT_EQ(replay.Get(449), nullptr);
  EXPECT_NE(replay.Get(450), nullptr);
  EXPECT_NE(replay.Get(600), nullptr);
  std::remove(path.c_str());
}

TEST(FileStorage, MaybeCompactPolicy) {
  const std::string path = TempLogPath("maybe");
  std::remove(path.c_str());
  FileStorage st(path);
  paxos::AcceptorRecord rec;
  rec.promised = 1;
  rec.accepted_round = 1;
  rec.accepted = paxos::Value::Skip(1);
  for (InstanceId i = 0; i < 100; ++i) st.Put(i, rec, 50, nullptr);
  // 100 live records, 100 appends: no garbage, so no compaction even
  // with the byte threshold at zero.
  EXPECT_FALSE(st.MaybeCompact(0));
  // Everything trimmed but the log is still tiny: byte floor holds.
  st.Trim(90);
  EXPECT_FALSE(st.MaybeCompact(1 << 30));
  // Garbage majority (100 appends vs 10 live) + floor passed: compacts.
  EXPECT_TRUE(st.MaybeCompact(0));
  EXPECT_EQ(st.compactions(), 1u);
  // Right after a rewrite the log is all live again: idempotent.
  EXPECT_FALSE(st.MaybeCompact(0));
  std::remove(path.c_str());
}

// A no-op protocol: the storage churn below is driven from the test
// thread via RunOnLoop, as a real acceptor's loop callbacks would.
class IdleProtocol final : public Protocol {
 public:
  void OnStart(Env&) override {}
  void OnMessage(Env&, NodeId, const MessagePtr&) override {}
};

TEST(FileStorage, RuntimeCompactionSurvivesRestart) {
  const std::string path = TempLogPath("runtime_compact");
  std::remove(path.c_str());
  {
    FileStorage st(path);
    InProcBus bus;
    NodeRuntime node(0, std::make_unique<IdleProtocol>(), bus.AddEndpoint(0));
    node.EnableLogCompaction(st, Millis(5), /*min_bytes=*/1);
    node.Start();
    // Churn: re-Put a small window of instances so most appends are
    // superseded, then wait for the timer-driven MaybeCompact to fire.
    paxos::AcceptorRecord rec;
    rec.promised = 2;
    rec.accepted_round = 2;
    rec.accepted = paxos::Value::Skip(3);
    std::uint64_t compactions = 0;
    for (int round = 0; round < 50 && compactions == 0; ++round) {
      node.RunOnLoop([&] {
        for (InstanceId i = 0; i < 10; ++i) st.Put(i, rec, 50, nullptr);
        compactions = st.compactions();
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    node.Stop();
    EXPECT_GT(st.compactions(), 0u);
    EXPECT_EQ(st.size(), 10u);
  }
  // Restart: the log replays to exactly the live instances (the record
  // count may exceed 10 when churn continued after the rewrite).
  FileStorage replay(path);
  EXPECT_GE(replay.Load(), 10u);
  EXPECT_EQ(replay.size(), 10u);
  for (InstanceId i = 0; i < 10; ++i) {
    ASSERT_NE(replay.Get(i), nullptr);
    EXPECT_EQ(replay.Get(i)->promised, 2u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrp::runtime

#include "runtime/cluster_config.h"

namespace mrp::runtime {
namespace {

TEST(ClusterConfig, ParsesFullConfig) {
  const std::string text = R"(
# comment
udp base_port 48200 mcast_prefix 239.255.90. mcast_port 48700
ring 0 members 2 spares 1 lambda 2000
ring 1 members 2 spares 1
node learner 0,1 acks
node proposer 1 rate 250 window 8 size 2048
)";
  std::string error;
  auto cfg = ClusterConfig::Parse(text, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->udp.base_port, 48200);
  EXPECT_EQ(cfg->udp.mcast_prefix, "239.255.90.");
  ASSERT_EQ(cfg->spec.n_rings, 2);
  EXPECT_EQ(cfg->spec.Ring(0).ring_members, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(cfg->spec.Ring(0).spares, (std::vector<NodeId>{2}));
  EXPECT_EQ(cfg->spec.Ring(1).ring_members, (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(cfg->spec.Ring(1).spares, (std::vector<NodeId>{5}));
  EXPECT_DOUBLE_EQ(cfg->spec.Ring(0).lambda_per_sec, 2000);
  EXPECT_EQ(cfg->spec.Ring(1).lambda_per_sec, 0);
  ASSERT_EQ(cfg->roles.size(), 2u);  // nodes 6 and 7
  const auto* learner = std::get_if<ClusterConfig::LearnerRole>(&cfg->roles[0]);
  ASSERT_NE(learner, nullptr);
  EXPECT_TRUE(learner->acks);
  EXPECT_EQ(learner->rings, (std::vector<int>{0, 1}));
  const auto* proposer =
      std::get_if<ClusterConfig::ProposerRole>(&cfg->roles[1]);
  ASSERT_NE(proposer, nullptr);
  EXPECT_EQ(proposer->ring, 1);
  EXPECT_DOUBLE_EQ(proposer->rate, 250);
  EXPECT_EQ(proposer->window, 8u);
  EXPECT_EQ(proposer->payload, 2048u);
}

TEST(ClusterConfig, RejectsMalformedInput) {
  const std::string ring0 = "ring 0 members 2\n";
  for (const std::string& text : {
           std::string("ring 0"),
           std::string("bogus directive"),
           std::string(""),
           ring0 + "node learner 7",
           ring0 + "node dancer 0",
           ring0 + "node proposer 0 window 0",
           ring0 + "node proposer 0 rate",
           ring0 + "ring 2 members 2",
           ring0 + "ring 1 members 3",
           std::string("ring x members 0,1"),
           std::string("ring 0 members 0,1"),
           std::string("ring 0 members 2 lambda fast"),
           std::string("ring 0 members 2 lambda -5"),
           ring0 + "node proposer 0 size 5000000000",
           ring0 + "udp base_port 99999999999",
           ring0 + "udp base_port 65535",
       }) {
    std::string error;
    EXPECT_FALSE(ClusterConfig::Parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  std::string error;
  ClusterConfig::Parse(ring0 + "udp base_port 99999999999", &error);
  EXPECT_EQ(error, "line 2: bad base_port '99999999999'");
  ClusterConfig::Parse("ring x members 0,1", &error);
  EXPECT_EQ(error.rfind("line 1: ", 0), 0u) << error;
}

TEST(ClusterConfig, ExampleFileParses) {
  std::string error;
  auto cfg = ClusterConfig::Load("../examples/cluster.cfg", &error);
  for (const char* path : {"../../examples/cluster.cfg", "examples/cluster.cfg"}) {
    if (!cfg) cfg = ClusterConfig::Load(path, &error);
  }
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto& spec = cfg->spec;
  EXPECT_EQ(spec.n_rings, 2);
  EXPECT_EQ(spec.ring_node_count() + cfg->roles.size(), 9u);
  // Every universe member of every ring runs that ring's acceptor.
  for (int r = 0; r < spec.n_rings; ++r) {
    for (NodeId id : spec.Ring(r).Universe()) {
      EXPECT_EQ(spec.acceptor_ring(id), r) << "ring " << r << " node " << id;
    }
  }
}

}  // namespace
}  // namespace mrp::runtime

namespace mrp::runtime {
namespace {

TEST(FileStorage, AcceptorRestartWithReplayServesRecovery) {
  // A recoverable acceptor crashes with state loss except its log; after
  // replaying the log it can serve learner recovery for old instances.
  const std::string p0 = TempLogPath("restart0");
  const std::string p1 = TempLogPath("restart1");
  std::remove(p0.c_str());
  std::remove(p1.c_str());

  multiring::DeploymentSpec spec;  // one ring of two members
  spec.lambda_per_sec = 0;
  const RingConfig rc = spec.Ring(0);

  // Phase 1: run a cluster, decide a few hundred instances, stop.
  {
    LocalCluster cluster(LocalCluster::Kind::kInProc);
    FileStorage st0(p0), st1(p1);
    cluster.AddNode(std::make_unique<RingNode>(rc, &st0), {0, 1});
    cluster.AddNode(std::make_unique<RingNode>(rc, &st1), {0, 1});
    std::atomic<std::uint64_t> delivered{0};
    multiring::MergeLearner::Options mo;
    LearnerOptions lo;
    lo.ring = rc;
    mo.groups.push_back(std::move(lo));
    mo.send_delivery_acks = true;
    mo.on_deliver = [&](GroupId, const ClientMsg&) { ++delivered; };
    cluster.AddNode(
        std::make_unique<multiring::MergeLearner>(std::move(mo)), {0, 1});
    ProposerConfig pc;
    pc.ring = 0;
    pc.coordinator = 0;
    pc.max_outstanding = 4;
    pc.payload_size = 512;
    cluster.AddNode(std::make_unique<Proposer>(pc), {1});
    cluster.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    cluster.Stop();
    ASSERT_GT(delivered.load(), 50u);
    st0.Flush();
    st1.Flush();
  }

  // Phase 2: fresh cluster processes, acceptors replay their logs. A
  // brand-new learner must be able to replay the decided history from
  // the reconstructed acceptors.
  {
    FileStorage st0(p0), st1(p1);
    ASSERT_GT(st0.Load(), 20u);
    ASSERT_GT(st1.Load(), 20u);
    LocalCluster cluster(LocalCluster::Kind::kInProc);
    cluster.AddNode(std::make_unique<RingNode>(rc, &st0), {0, 1});
    cluster.AddNode(std::make_unique<RingNode>(rc, &st1), {0, 1});
    std::atomic<std::uint64_t> redelivered{0};
    multiring::MergeLearner::Options mo;
    LearnerOptions lo;
    lo.ring = rc;
    mo.groups.push_back(std::move(lo));
    mo.on_deliver = [&](GroupId, const ClientMsg&) { ++redelivered; };
    cluster.AddNode(
        std::make_unique<multiring::MergeLearner>(std::move(mo)), {0, 1});
    cluster.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    cluster.Stop();
    // The new coordinator's Phase 1 re-proposes the replayed values and
    // the learner receives the full history.
    EXPECT_GT(redelivered.load(), 50u)
        << "replayed history was not re-served after restart";
  }
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

}  // namespace
}  // namespace mrp::runtime
