// Unit tests: event queue and stable storage.
#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/stable_storage.hpp"
#include "util/ensure.hpp"

namespace dynvote::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(1); });
  q.schedule_at(5, [&] { order.push_back(2); });
  q.schedule_at(5, [&] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  SimTime seen = 0;
  q.schedule_at(100, [&] {
    q.schedule_after(50, [&] { seen = q.now(); });
  });
  q.run_all();
  EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule_after(10, chain);
  };
  q.schedule_at(0, chain);
  q.run_all();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, RejectsSchedulingIntoThePast) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule_at(5, [] {}), InvariantViolation);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
  EventQueue q;
  EXPECT_EQ(q.run_until(500), 0u);
  EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int ran = 0;
  q.schedule_at(10, [&] { ++ran; });
  q.schedule_at(20, [&] { ++ran; });
  q.schedule_at(30, [&] { ++ran; });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.now(), 20u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunAllHonorsEventLimit) {
  EventQueue q;
  std::function<void()> forever = [&] { q.schedule_after(1, forever); };
  q.schedule_at(0, forever);
  EXPECT_EQ(q.run_all(100), 100u);
  EXPECT_FALSE(q.empty());
}

// -- the action slab: a slot is vacated when its event runs and handed
// to the next schedule_at.

TEST(EventQueue, ActionMayGrowTheSlabWhileItRuns) {
  EventQueue q;
  std::vector<int> ran;
  // The captured string sits in the action's inline storage (a const
  // capture would not be nothrow-movable and would be boxed instead);
  // were the action run in place, the slab growth below would free it.
  std::string tag(64, 'x');
  bool tag_intact = false;
  q.schedule_at(1, [&q, &ran, &tag_intact, tag] {
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(2, [&ran, i] { ran.push_back(i); });
    }
    tag_intact = tag == std::string(64, 'x');
  });
  q.run_all();
  EXPECT_TRUE(tag_intact);
  ASSERT_EQ(ran.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(ran[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EqualTimeEventsStayFifoAcrossSlotReuse) {
  EventQueue q;
  for (int i = 0; i < 8; ++i) q.schedule_at(5, [] {});
  // Running them frees slots 0..7 in order; the LIFO free list hands
  // them back out of index order (7 first).
  EXPECT_EQ(q.run_until(5), 8u);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// schedule_at and schedule_after draw from one insertion sequence, so
// equal-time events run in the order they were scheduled whichever call
// scheduled them, and an event scheduled at the current time by a
// running event goes behind those already due then.
TEST(EventQueue, ScheduleAtAndAfterShareOneInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] {
    order.push_back(1);
    q.schedule_after(0, [&] { order.push_back(5); });
  });
  q.schedule_after(10, [&] { order.push_back(2); });
  q.schedule_at(10, [&] { order.push_back(3); });
  q.schedule_after(10, [&] { order.push_back(4); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.now(), 10u);
}

// Every scheduled event stays pending until it runs, including those
// scheduled by a running event.
TEST(EventQueue, PendingCountsEveryEventUntilItRuns) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.schedule_at(1, [&q] {
    q.schedule_after(1, [] {});
    q.schedule_after(2, [] {});
  });
  q.schedule_at(5, [] {});
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_TRUE(q.run_next());
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.executed(), 1u);
  EXPECT_EQ(q.run_until(3), 2u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.run_all(), 1u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.executed(), 4u);
  EXPECT_FALSE(q.run_next());
}

void put_bytes(StableStorage& storage, StableStorage::KeyId key,
               const std::vector<std::uint8_t>& bytes) {
  storage.put(key, bytes.data(), bytes.size());
}

TEST(StableStorage, PutReplacesTheValue) {
  StableStorage storage;
  const StableStorage::KeyId k = storage.intern("k");
  EXPECT_EQ(storage.value(k), nullptr);
  put_bytes(storage, k, {1, 2, 3});
  ASSERT_NE(storage.value(k), nullptr);
  EXPECT_EQ(*storage.value(k), (std::vector<std::uint8_t>{1, 2, 3}));
  put_bytes(storage, k, {9});
  EXPECT_EQ(*storage.value(k), (std::vector<std::uint8_t>{9}));
}

TEST(StableStorage, DestroyWipesEverything) {
  StableStorage storage;
  const StableStorage::KeyId a = storage.intern("a");
  put_bytes(storage, a, {1});
  put_bytes(storage, storage.intern("b"), {2});
  EXPECT_EQ(storage.entry_count(), 2u);
  EXPECT_FALSE(storage.destroyed_once());
  storage.destroy();
  EXPECT_TRUE(storage.destroyed_once());
  EXPECT_EQ(storage.entry_count(), 0u);
  EXPECT_EQ(storage.value(a), nullptr);
}

TEST(StableStorage, TracksWriteMetrics) {
  StableStorage storage;
  put_bytes(storage, storage.intern("a"), {1, 2, 3});
  put_bytes(storage, storage.intern("b"), {4});
  EXPECT_EQ(storage.writes(), 2u);
  EXPECT_EQ(storage.bytes_written(), 4u);
}

TEST(StableStorage, InternIsIdempotent) {
  StableStorage storage;
  const StableStorage::KeyId id = storage.intern("k");
  EXPECT_EQ(storage.intern("k"), id);
  EXPECT_NE(storage.intern("other"), id);

  // Both ids of one name reach one slot.
  put_bytes(storage, id, {7, 8});
  put_bytes(storage, storage.intern("k"), {9});
  ASSERT_NE(storage.value(id), nullptr);
  EXPECT_EQ(*storage.value(id), (std::vector<std::uint8_t>{9}));
}

TEST(StableStorage, AppendLogTruncate) {
  StableStorage storage;
  const StableStorage::KeyId id = storage.intern("k");
  EXPECT_EQ(storage.log_bytes(id), 0u);
  const std::uint8_t a[] = {1, 2};
  const std::uint8_t b[] = {3};
  storage.append(id, a, sizeof a);
  storage.append(id, b, sizeof b);
  EXPECT_EQ(storage.log(id), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(storage.log_records(id), 2u);
  EXPECT_EQ(storage.log_bytes(id), 3u);
  // The log and the value slot are independent surfaces of one key.
  EXPECT_EQ(storage.value(id), nullptr);
  // Appends count as writes, and separately as appends.
  EXPECT_EQ(storage.writes(), 2u);
  EXPECT_EQ(storage.appends(), 2u);
  EXPECT_EQ(storage.bytes_written(), 3u);

  storage.truncate_log(id);
  EXPECT_EQ(storage.log_bytes(id), 0u);
  EXPECT_EQ(storage.log_records(id), 0u);
}

TEST(StableStorage, DestroyWipesLogsButKeepsInternedIds) {
  StableStorage storage;
  const StableStorage::KeyId id = storage.intern("k");
  const std::uint8_t a[] = {1};
  storage.append(id, a, sizeof a);
  storage.put(id, a, sizeof a);
  EXPECT_EQ(storage.entry_count(), 1u);
  storage.destroy();
  EXPECT_EQ(storage.entry_count(), 0u);
  EXPECT_EQ(storage.log_bytes(id), 0u);
  EXPECT_EQ(storage.value(id), nullptr);
  // The id still names the same slot after the disk loss.
  EXPECT_EQ(storage.intern("k"), id);
}

TEST(StableStorage, RejectsForeignKeyIds) {
  StableStorage storage;
  const std::uint8_t a[] = {1};
  EXPECT_THROW(storage.put(StableStorage::KeyId{42}, a, sizeof a),
               dynvote::InvariantViolation);
}

}  // namespace
}  // namespace dynvote::sim
