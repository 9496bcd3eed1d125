// Unit tests: event queue and stable storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "event_queue_reference.hpp"
#include "sim/event_queue.hpp"
#include "sim/stable_storage.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"

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

// -- the tick buckets against the key heap they replaced. Each event logs
// (time, label) when it runs and may schedule children from the
// schedule's own stream, so two queues that run the same events in the
// same order draw the same numbers and build the same schedule; the
// first divergence shows in the logs, the clock or the pending count.

constexpr SimTime kWindow = EventQueue::kWindow;

template <typename Queue>
struct RandomSchedule {
  explicit RandomSchedule(std::uint64_t seed) : rng(seed) {}

  /// Delays from 0 to four windows, dense near the window's edge; half
  /// the times are rounded up to a 128-tick grid, so events scheduled
  /// near and far, and at different clock readings, tie at one tick.
  SimTime draw_time() {
    SimTime delay = 0;
    switch (rng.next_below(6)) {
      case 0:
        break;
      case 1:
        delay = rng.next_below(8);
        break;
      case 2:
        delay = rng.next_range(40, 160);
        break;
      case 3:
        delay = rng.next_below(kWindow);
        break;
      case 4:
        delay = kWindow - 2 + rng.next_below(4);
        break;
      default:
        delay = rng.next_below(4 * kWindow);
        break;
    }
    const SimTime t = queue.now() + delay;
    return rng.next_bool(0.5) ? (t + 127) / 128 * 128 : t;
  }

  /// Schedules one event whose action schedules up to two children, at
  /// now, inside the window or beyond it; the depth bound ends every
  /// cascade.
  void schedule(int depth) {
    const std::uint64_t label = next_label++;
    queue.schedule_at(draw_time(), [this, label, depth] {
      log.emplace_back(queue.now(), label);
      if (depth == 8) return;
      for (auto children = rng.next_below(3); children > 0; --children) {
        schedule(depth + 1);
      }
    });
  }

  Queue queue;
  Rng rng;
  std::uint64_t next_label = 0;
  std::vector<std::pair<SimTime, std::uint64_t>> log;
};

TEST(EventQueue, RunsTheReferenceHeapOrderOnRandomSchedules) {
  constexpr int kSteps = 400;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RandomSchedule<EventQueue> buckets(seed);
    RandomSchedule<reference::HeapEventQueue> heap(seed);
    Rng ops(seed * 7919);
    std::size_t checked = 0;  // log entries already compared
    // The step after the last drains both queues.
    for (int step = 0; step <= kSteps; ++step) {
      switch (step == kSteps ? 5 : ops.next_below(5)) {
        case 0:
        case 1:
          for (auto k = 1 + ops.next_below(4); k > 0; --k) {
            buckets.schedule(0);
            heap.schedule(0);
          }
          break;
        case 2:
          ASSERT_EQ(buckets.queue.run_next(), heap.queue.run_next());
          break;
        case 3: {
          // Short steps, steps inside the window, and jumps over
          // several empty windows.
          SimTime jump = ops.next_below(64);
          if (ops.next_bool(0.5)) jump = ops.next_below(kWindow);
          if (ops.next_bool(0.25)) jump = kWindow * (1 + ops.next_below(4));
          const SimTime t = buckets.queue.now() + jump;
          ASSERT_EQ(buckets.queue.run_until(t), heap.queue.run_until(t));
          break;
        }
        case 4: {
          const std::size_t budget = ops.next_below(40);
          ASSERT_EQ(buckets.queue.run_all(budget), heap.queue.run_all(budget));
          ASSERT_EQ(buckets.queue.empty(), heap.queue.empty());
          break;
        }
        default: {
          ASSERT_EQ(buckets.queue.run_all(EventQueue::kDefaultMaxEvents),
                    heap.queue.run_all(EventQueue::kDefaultMaxEvents));
          ASSERT_TRUE(buckets.queue.empty());
          ASSERT_TRUE(heap.queue.empty());
          break;
        }
      }
      const std::size_t common = std::min(buckets.log.size(), heap.log.size());
      for (; checked < common; ++checked) {
        ASSERT_EQ(buckets.log[checked], heap.log[checked])
            << "seed " << seed << " step " << step << " event " << checked;
      }
      ASSERT_EQ(buckets.log.size(), heap.log.size())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(buckets.queue.now(), heap.queue.now());
      ASSERT_EQ(buckets.queue.pending(), heap.queue.pending());
      ASSERT_EQ(buckets.queue.empty(), heap.queue.empty());
      ASSERT_EQ(buckets.queue.executed(), heap.queue.executed());
    }
  }
}

// A far event moves into its bucket when the clock moves, before the
// event that moved the clock can schedule at the same tick.
TEST(EventQueue, FarEventRunsBeforeALaterInsertAtItsTick) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3 * kWindow, [&] { order.push_back(1); });
  q.schedule_at(2 * kWindow + 1, [&] {
    q.schedule_at(3 * kWindow, [&] { order.push_back(2); });
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// run_until moves the far events into the window it lands in, so an
// insert after the jump goes behind them.
TEST(EventQueue, RunUntilJumpMovesFarEventsIntoTheWindow) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5 * kWindow, [&] { order.push_back(1); });
  q.schedule_at(5 * kWindow + 2, [&] { order.push_back(3); });
  EXPECT_EQ(q.run_until(4 * kWindow + 7), 0u);
  EXPECT_EQ(q.now(), 4 * kWindow + 7);
  q.schedule_at(5 * kWindow + 1, [&] { order.push_back(2); });
  q.schedule_at(5 * kWindow, [&] { order.push_back(4); });
  EXPECT_EQ(q.pending(), 4u);
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 3}));
  EXPECT_EQ(q.now(), 5 * kWindow + 2);
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
