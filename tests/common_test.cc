// Unit tests for the common substrate: byte codec, histogram, rate
// meters, RNG, the instance window and the instance log.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/instance_window.h"
#include "common/rand.h"
#include "common/stats.h"
#include "common/types.h"

namespace mrp {
namespace {

TEST(Bytes, FixedWidthRoundtrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(*r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintRoundtrip) {
  const std::uint64_t cases[] = {0,      1,       127,        128,
                                 16383,  16384,   (1ULL << 32),
                                 (1ULL << 56) + 17, std::numeric_limits<std::uint64_t>::max()};
  ByteWriter w;
  for (auto v : cases) w.varint(v);
  ByteReader r(w.data());
  for (auto v : cases) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, StringsAndBlobs) {
  ByteWriter w;
  w.str("hello");
  w.bytes(Bytes{1, 2, 3});
  w.str("");
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, UnderflowReturnsNullopt) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_TRUE(r.u16().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.bytes().has_value());
}

TEST(Bytes, TruncatedBlobRejected) {
  ByteWriter w;
  w.varint(100);  // claims 100 bytes follow
  w.u8(1);
  ByteReader r(w.data());
  EXPECT_FALSE(r.bytes().has_value());
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.RecordValue(static_cast<std::uint64_t>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  // Log buckets bound the quantile error.
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.5)), 50, 5);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.99)), 99, 8);
}

TEST(Histogram, TrimmedMeanDiscardsTail) {
  Histogram h;
  for (int i = 0; i < 95; ++i) h.RecordValue(100);
  for (int i = 0; i < 5; ++i) h.RecordValue(1000000);
  // Paper methodology: mean after discarding the 5% highest samples.
  EXPECT_NEAR(h.TrimmedMean(0.05), 100, 10);
  EXPECT_GT(h.mean(), 10000);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.RecordValue(10);
  b.RecordValue(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 20u);
}

TEST(RateMeter, WindowedRates) {
  RateMeter m;
  m.Add(10, 1000);
  auto w1 = m.TakeWindow();
  EXPECT_EQ(w1.count, 10u);
  EXPECT_EQ(w1.bytes, 1000u);
  EXPECT_DOUBLE_EQ(w1.Mbps(Seconds(1)), 1000 * 8 / 1e6);
  m.Add(5, 500);
  auto w2 = m.TakeWindow();
  EXPECT_EQ(w2.count, 5u);
  EXPECT_EQ(m.total_count(), 15u);
}

TEST(BusyMeter, Utilisation) {
  BusyMeter b;
  b.AddBusy(Millis(500));
  EXPECT_NEAR(b.TakeUtilisation(Seconds(1)), 0.5, 1e-9);
  // Next window: no new busy time.
  EXPECT_NEAR(b.TakeUtilisation(Seconds(2)), 0.0, 1e-9);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(InstanceWindow, InOrderPop) {
  InstanceWindow<int> w;
  EXPECT_TRUE(w.Insert(0, 10));
  EXPECT_TRUE(w.Insert(1, 11));
  EXPECT_EQ(*w.Peek(), 10);
  EXPECT_EQ(w.Pop(), 10);
  EXPECT_EQ(w.Pop(), 11);
  EXPECT_EQ(w.next(), 2u);
  EXPECT_EQ(w.Peek(), nullptr);
}

TEST(InstanceWindow, OutOfOrderBuffering) {
  InstanceWindow<int> w;
  EXPECT_TRUE(w.Insert(2, 12));
  EXPECT_EQ(w.Peek(), nullptr);
  EXPECT_EQ(w.buffered(), 1u);
  EXPECT_EQ(w.FirstGap(), 0u);
  EXPECT_TRUE(w.Insert(0, 10));
  EXPECT_EQ(w.FirstGap(), 1u);
  EXPECT_EQ(w.Pop(), 10);
  EXPECT_EQ(w.Peek(), nullptr);  // gap at 1
  EXPECT_TRUE(w.Insert(1, 11));
  EXPECT_EQ(w.Pop(), 11);
  EXPECT_EQ(w.Pop(), 12);
}

TEST(InstanceWindow, DuplicatesAndStaleRejected) {
  InstanceWindow<int> w;
  EXPECT_TRUE(w.Insert(0, 1));
  EXPECT_FALSE(w.Insert(0, 2));  // duplicate
  EXPECT_EQ(w.Pop(), 1);
  EXPECT_FALSE(w.Insert(0, 3));  // already consumed
}

TEST(InstanceWindow, SkipAdvancesPastBufferedAndEmpty) {
  InstanceWindow<int> w;
  w.Insert(1, 11);
  w.Insert(5, 15);
  w.Skip(3);  // covers 0,1,2 (1 was buffered: discarded)
  EXPECT_EQ(w.next(), 3u);
  EXPECT_EQ(w.buffered(), 1u);
  w.Skip(2);  // covers 3,4
  EXPECT_EQ(w.next(), 5u);
  EXPECT_EQ(w.Pop(), 15);
  w.Skip(10);  // beyond everything
  EXPECT_EQ(w.next(), 16u);
}

// Ids the log holds, front to back.
std::vector<InstanceId> Ids(const InstanceLog<int>& log) {
  std::vector<InstanceId> ids;
  for (const auto& e : log) ids.push_back(e.id);
  return ids;
}

TEST(InstanceLog, InOrderAppend) {
  InstanceLog<int> log;
  EXPECT_TRUE(log.empty());
  for (InstanceId i = 0; i < 10; ++i) log[i * 3] = static_cast<int>(i);
  EXPECT_EQ(log.size(), 10u);
  ASSERT_NE(log.Find(27), nullptr);
  EXPECT_EQ(*log.Find(27), 9);
  EXPECT_EQ(*log.Find(0), 0);
  EXPECT_EQ(log.Find(1), nullptr);  // between entries
  log[27] = 99;                     // existing entry: no new slot
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(*log.Find(27), 99);
}

TEST(InstanceLog, InsertBehindTheBack) {
  InstanceLog<int> log;
  log[10] = 10;
  log[11] = 11;
  log[14] = 14;
  log[15] = 15;
  log[12] = 12;  // a few entries behind the back
  log[13] = 13;
  EXPECT_EQ(Ids(log), (std::vector<InstanceId>{10, 11, 12, 13, 14, 15}));
  for (InstanceId i = 10; i <= 15; ++i) {
    ASSERT_NE(log.Find(i), nullptr) << i;
    EXPECT_EQ(*log.Find(i), static_cast<int>(i));
  }
  // Far behind the back of a longer table.
  for (InstanceId i = 100; i < 400; ++i) log[i] = 0;
  log[50] = 50;
  EXPECT_EQ(*log.Find(50), 50);
  EXPECT_EQ(log.LowerBound(16)->id, 50u);
  EXPECT_EQ(log.size(), 307u);
}

TEST(InstanceLog, FindOutsideTheLiveRange) {
  InstanceLog<int> log;
  EXPECT_EQ(log.Find(0), nullptr);
  for (InstanceId i = 20; i < 30; ++i) log[i] = 1;
  log.Trim(25);
  EXPECT_EQ(log.Find(24), nullptr);  // trimmed
  EXPECT_EQ(log.Find(3), nullptr);   // below the front
  EXPECT_EQ(log.Find(30), nullptr);  // above the back
  EXPECT_EQ(log.Find(1000), nullptr);
  EXPECT_NE(log.Find(25), nullptr);
  EXPECT_NE(log.Find(29), nullptr);
  // A stale insert below the front is kept in order (map semantics).
  log[7] = 7;
  EXPECT_EQ(Ids(log), (std::vector<InstanceId>{7, 25, 26, 27, 28, 29}));
}

TEST(InstanceLog, TrimAndLowerBoundIteration) {
  InstanceLog<int> log;
  for (InstanceId i = 0; i < 1000; i += 2) log[i] = static_cast<int>(i);
  log.Trim(0);  // no-op
  EXPECT_EQ(log.size(), 500u);
  log.Trim(501);  // pops 0..500
  EXPECT_EQ(log.size(), 249u);
  EXPECT_EQ(log.begin()->id, 502u);
  log.Trim(400);  // below the front: no-op
  EXPECT_EQ(log.size(), 249u);

  std::vector<InstanceId> from;
  for (auto it = log.LowerBound(991); it != log.end(); ++it) from.push_back(it->id);
  EXPECT_EQ(from, (std::vector<InstanceId>{992, 994, 996, 998}));
  EXPECT_EQ(log.LowerBound(0), log.begin());
  EXPECT_EQ(log.LowerBound(999), log.end());
  EXPECT_EQ(log.LowerBound(600)->id, 600u);

  log.Trim(5000);  // everything
  EXPECT_TRUE(log.empty());
  log[3] = 3;  // usable after emptying
  EXPECT_EQ(Ids(log), (std::vector<InstanceId>{3}));
}

}  // namespace
}  // namespace mrp
