//===- tests/eventloop_test.cpp - event loop and network tests ---------------===//

#include "runtime/EventLoop.h"
#include "runtime/Network.h"

#include <gtest/gtest.h>

using namespace wr;
using namespace wr::rt;

namespace {

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop L;
  std::vector<int> Order;
  L.scheduleAt(300, [&] { Order.push_back(3); });
  L.scheduleAt(100, [&] { Order.push_back(1); });
  L.scheduleAt(200, [&] { Order.push_back(2); });
  L.runUntilIdle();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(L.now(), 300u);
  EXPECT_EQ(L.cutBy(), nullptr);
}

TEST(EventLoopTest, FifoForEqualTimes) {
  EventLoop L;
  std::vector<int> Order;
  for (int I = 0; I < 5; ++I)
    L.scheduleAt(100, [&Order, I] { Order.push_back(I); });
  L.runUntilIdle();
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, TasksCanScheduleTasks) {
  EventLoop L;
  int Fired = 0;
  L.scheduleAt(10, [&] {
    ++Fired;
    L.scheduleAfter(5, [&] { ++Fired; });
  });
  L.runUntilIdle();
  EXPECT_EQ(Fired, 2);
  EXPECT_EQ(L.now(), 15u);
}

TEST(EventLoopTest, Cancel) {
  EventLoop L;
  bool Ran = false;
  auto Id = L.scheduleAt(10, [&] { Ran = true; });
  EXPECT_EQ(L.pendingTasks(), 1u);
  EXPECT_TRUE(L.cancel(Id));
  EXPECT_EQ(L.pendingTasks(), 0u);
  L.runUntilIdle();
  EXPECT_FALSE(Ran);
  EXPECT_FALSE(L.cancel(Id)); // Double-cancel fails.
}

TEST(EventLoopTest, PastTimesClampToNow) {
  EventLoop L;
  L.scheduleAt(100, [] {});
  L.runUntilIdle();
  uint64_t Before = L.now();
  bool Ran = false;
  L.scheduleAt(5, [&] { Ran = true; }); // In the past.
  L.runUntilIdle();
  EXPECT_TRUE(Ran);
  EXPECT_EQ(L.now(), Before);
}

TEST(EventLoopTest, TaskLimitStopsRunaway) {
  // A timeout that reschedules itself with delay 0 never moves the
  // clock, so only the task cap ends it; the pending task is dropped.
  EventLoop L;
  std::function<void()> Loop = [&] { L.scheduleAfter(0, Loop); };
  L.scheduleAfter(0, Loop);
  size_t Ran = L.runUntilIdle();
  EXPECT_EQ(Ran, EventLoop::MaxTasks);
  EXPECT_EQ(L.now(), 0u);
  EXPECT_STREQ(L.cutBy(), "task cap");
  EXPECT_EQ(L.pendingTasks(), 0u);
  EXPECT_FALSE(L.runOne());
}

TEST(EventLoopTest, HorizonStopsNeverClearedInterval) {
  // A 7 ms interval nobody clears runs until its next firing would fall
  // past the virtual-time horizon.
  EventLoop L;
  std::function<void()> Tick = [&] { L.scheduleAfter(7000, Tick); };
  L.scheduleAfter(7000, Tick);
  size_t Ran = L.runUntilIdle();
  EXPECT_EQ(Ran, EventLoop::Horizon / 7000);
  EXPECT_LE(L.now(), EventLoop::Horizon);
  EXPECT_STREQ(L.cutBy(), "virtual-time horizon");
  EXPECT_EQ(L.pendingTasks(), 0u);
}

TEST(NetworkTest, DeliversBodyAfterLatency) {
  EventLoop L;
  NetworkSimulator Net(L, 1);
  Net.addResource("a.js", "var x = 1;", 500);
  FetchResult Got;
  Net.fetch("a.js", [&](const FetchResult &R) { Got = R; });
  L.runUntilIdle();
  EXPECT_TRUE(Got.Ok);
  EXPECT_EQ(Got.Body, "var x = 1;");
  EXPECT_EQ(L.now(), 500u);
}

TEST(NetworkTest, MissingResourceFails) {
  EventLoop L;
  NetworkSimulator Net(L, 1);
  FetchResult Got;
  Got.Ok = true;
  Net.fetch("missing.js", [&](const FetchResult &R) { Got = R; });
  L.runUntilIdle();
  EXPECT_FALSE(Got.Ok);
}

TEST(NetworkTest, JitterWithinBoundsAndDeterministic) {
  EventLoop L1;
  NetworkSimulator Net1(L1, 42);
  Net1.addResourceWithJitter("a.js", "x", 100, 1000);
  VirtualTime T1 = 0;
  Net1.fetch("a.js", [&](const FetchResult &) { T1 = L1.now(); });
  L1.runUntilIdle();
  EXPECT_GE(T1, 100u);
  EXPECT_LE(T1, 1000u);

  EventLoop L2;
  NetworkSimulator Net2(L2, 42);
  Net2.addResourceWithJitter("a.js", "x", 100, 1000);
  VirtualTime T2 = 0;
  Net2.fetch("a.js", [&](const FetchResult &) { T2 = L2.now(); });
  L2.runUntilIdle();
  EXPECT_EQ(T1, T2); // Same seed, same latency.
}

TEST(NetworkTest, LatencyOverride) {
  EventLoop L;
  NetworkSimulator Net(L, 1);
  Net.addResource("a.js", "x", 500);
  Net.overrideLatency("a.js", 7);
  VirtualTime T = 0;
  Net.fetch("a.js", [&](const FetchResult &) { T = L.now(); });
  L.runUntilIdle();
  EXPECT_EQ(T, 7u);
  Net.clearOverrides();
  Net.fetch("a.js", [&](const FetchResult &) { T = L.now(); });
  L.runUntilIdle();
  EXPECT_EQ(T, 507u);
}

TEST(NetworkTest, ConcurrentFetchOrderFollowsLatency) {
  EventLoop L;
  NetworkSimulator Net(L, 1);
  Net.addResource("slow.js", "s", 1000);
  Net.addResource("fast.js", "f", 10);
  std::vector<std::string> Order;
  Net.fetch("slow.js", [&](const FetchResult &R) { Order.push_back(R.Url); });
  Net.fetch("fast.js", [&](const FetchResult &R) { Order.push_back(R.Url); });
  L.runUntilIdle();
  EXPECT_EQ(Order, (std::vector<std::string>{"fast.js", "slow.js"}));
}

} // namespace
