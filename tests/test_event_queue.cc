#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.h"

namespace ntier::sim {
namespace {

Time at(double s) { return Time::from_seconds(s); }

TEST(EventQueue, EmptyQueue) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::max());
  EXPECT_FALSE(q.pop_and_run());
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(at(3), [&] { order.push_back(3); });
  q.push(at(1), [&] { order.push_back(1); });
  q.push(at(2), [&] { order.push_back(2); });
  while (q.pop_and_run()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.push(at(1), [&order, i] { order.push_back(i); });
  while (q.pop_and_run()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.push(at(1), [] {});
  q.push(at(2), [] {});
  h.cancel();
  EXPECT_EQ(q.next_time(), at(2));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  auto h = q.push(at(1), [&] { ++fired; });
  h.cancel();
  while (q.pop_and_run()) {
  }
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  int fired = 0;
  auto h = q.push(at(1), [&] { ++fired; });
  EXPECT_TRUE(q.pop_and_run());
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or double-count
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, HandlePendingLifecycle) {
  EventQueue q;
  EventHandle none;
  EXPECT_FALSE(none.pending());
  auto h = q.push(at(1), [] {});
  EXPECT_TRUE(h.pending());
  q.pop_and_run();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, EventsCanPushEvents) {
  EventQueue q;
  std::vector<int> order;
  q.push(at(1), [&] {
    order.push_back(1);
    q.push(at(2), [&] { order.push_back(2); });
  });
  while (q.pop_and_run()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CancelledEntriesDoNotBlockEmpty) {
  EventQueue q;
  auto h1 = q.push(at(1), [] {});
  auto h2 = q.push(at(2), [] {});
  h1.cancel();
  h2.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyInterleaved) {
  EventQueue q;
  std::vector<Time> fired;
  for (int i = 100; i > 0; --i)
    q.push(Time::from_micros(i * 7 % 101), [&fired, i] { fired.push_back(Time::from_micros(i * 7 % 101)); });
  while (q.pop_and_run()) {
  }
  ASSERT_EQ(fired.size(), 100u);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i]);
}

TEST(EventQueue, ReserveMakesRoomWithoutChangingOrder) {
  // Two queues get the same pushes (one live event, one cancelled slot,
  // then a bulk of 3000); only one reserves room for the bulk first.
  constexpr int kBulk = 3000;
  std::vector<int> order[2];
  for (int reserved = 0; reserved < 2; ++reserved) {
    EventQueue q;
    std::vector<int>& out = order[reserved];
    q.push(at(0.5), [&out] { out.push_back(-1); });
    EventHandle gone = q.push(at(0.25), [&out] { out.push_back(-2); });
    gone.cancel();
    if (reserved != 0) q.reserve(kBulk);
    const std::uint64_t n0 = test::allocations();
    for (int i = 0; i < kBulk; ++i)
      q.push(Time::from_micros((i * 7919) % 5003 + 1), [&out, i] { out.push_back(i); });
    if (reserved != 0) EXPECT_EQ(test::allocations() - n0, 0u);
    while (q.pop_and_run()) {
    }
  }
  ASSERT_EQ(order[0].size(), kBulk + 1u);
  EXPECT_EQ(order[0], order[1]);
}

}  // namespace
}  // namespace ntier::sim
