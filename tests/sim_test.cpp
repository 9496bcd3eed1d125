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

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventToken token = q.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(token));
  EXPECT_FALSE(q.cancel(token));
  q.run_all();
  EXPECT_FALSE(ran);
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

// -- the action slab: slots are vacated when an event runs or is
// cancelled and handed to the next schedule_at.

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

TEST(EventQueue, CancelAfterSlotReuseLeavesTheNewOccupant) {
  EventQueue q;
  int old_ran = 0;
  int new_ran = 0;
  // A token that ran: its slot now holds a later event.
  const EventToken ran = q.schedule_at(1, [&] { ++old_ran; });
  q.run_next();
  q.schedule_at(2, [&] { ++new_ran; });
  EXPECT_FALSE(q.cancel(ran));
  // A token that was cancelled: its dead key is still in the heap while
  // its slot holds a later event.
  const EventToken cancelled = q.schedule_at(3, [&] { ++old_ran; });
  EXPECT_TRUE(q.cancel(cancelled));
  q.schedule_at(3, [&] { ++new_ran; });
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_EQ(q.pending(), 2u);
  q.run_all();
  EXPECT_EQ(old_ran, 1);
  EXPECT_EQ(new_ran, 2);
}

TEST(EventQueue, EqualTimeEventsStayFifoAcrossSlotReuse) {
  EventQueue q;
  std::vector<EventToken> tokens;
  for (int i = 0; i < 8; ++i) tokens.push_back(q.schedule_at(5, [] {}));
  // Free every other slot, so reuse hands slots back out of index order.
  for (std::size_t i = 0; i < tokens.size(); i += 2) q.cancel(tokens[i]);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(StableStorage, PutGetErase) {
  StableStorage storage;
  EXPECT_EQ(storage.get("k"), std::nullopt);
  storage.put("k", {1, 2, 3});
  EXPECT_EQ(storage.get("k"), (std::vector<std::uint8_t>{1, 2, 3}));
  storage.put("k", {9});
  EXPECT_EQ(storage.get("k"), (std::vector<std::uint8_t>{9}));
  EXPECT_TRUE(storage.erase("k"));
  EXPECT_FALSE(storage.erase("k"));
  EXPECT_EQ(storage.get("k"), std::nullopt);
}

TEST(StableStorage, DestroyWipesEverything) {
  StableStorage storage;
  storage.put("a", {1});
  storage.put("b", {2});
  EXPECT_EQ(storage.entry_count(), 2u);
  EXPECT_FALSE(storage.destroyed_once());
  storage.destroy();
  EXPECT_TRUE(storage.destroyed_once());
  EXPECT_EQ(storage.entry_count(), 0u);
  EXPECT_EQ(storage.get("a"), std::nullopt);
}

TEST(StableStorage, TracksWriteMetrics) {
  StableStorage storage;
  storage.put("a", {1, 2, 3});
  storage.put("b", {4});
  EXPECT_EQ(storage.writes(), 2u);
  EXPECT_EQ(storage.bytes_written(), 4u);
}

TEST(StableStorage, InternIsIdempotentAndSharedWithStringShims) {
  StableStorage storage;
  const StableStorage::KeyId id = storage.intern("k");
  EXPECT_EQ(storage.intern("k"), id);
  EXPECT_NE(storage.intern("other"), id);

  const std::uint8_t bytes[] = {7, 8};
  storage.put(id, bytes, sizeof bytes);
  EXPECT_EQ(storage.get("k"), (std::vector<std::uint8_t>{7, 8}));
  storage.put("k", {9});
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
