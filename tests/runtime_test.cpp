// Tests for the pool runtime (src/runtime/): the SPSC queue and
// timer wheel in isolation (including cross-thread stress cases meant
// to run under TSan — tools/run_experiments.sh wires the Runtime*
// prefixes into its TSan pass), the fleet lifecycle, and the
// DES-as-oracle cross-check that pins the pool at every worker count
// to the DES's outcome digests seed by seed.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/crosscheck.hpp"
#include "runtime/fleet.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/timer_wheel.hpp"
#include "util/rng.hpp"

namespace dynvote::runtime {
namespace {

// --------------------------------------------------------------- SPSC queue

constexpr std::size_t kSegment = SpscQueue<std::uint64_t>::kSegmentItems;

// Irregular bursts of up to three segments' worth of pushes and pops:
// the queue crosses segment boundaries at every alignment, holds
// several segments at once, and recycles them as it drains.
TEST(RuntimeSpsc, FifoAcrossManySegmentBoundaries) {
  SpscQueue<std::uint64_t> queue;
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  std::uint64_t deepest = 0;
  Rng rng(7);
  for (int round = 0; round < 2000; ++round) {
    for (std::uint64_t pushes = rng.next_below(3 * kSegment); pushes > 0;
         --pushes) {
      queue.push(std::uint64_t(next_push++));
    }
    deepest = std::max(deepest, next_push - next_pop);
    std::uint64_t out = 0;
    for (std::uint64_t pops = rng.next_below(3 * kSegment);
         pops > 0 && queue.try_pop(out); --pops) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  std::uint64_t out = 0;
  while (queue.try_pop(out)) {
    ASSERT_EQ(out, next_pop);
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_GT(next_push, 100 * kSegment);  // many boundaries crossed
  EXPECT_GT(deepest, 4 * kSegment);      // several segments held at once
  EXPECT_EQ(queue.producer_size(), 0u);
}

TEST(RuntimeSpsc, PopBulkHonoursMaxAcrossASegmentBoundary) {
  SpscQueue<std::uint64_t> queue;
  for (std::uint64_t i = 0; i < kSegment + 10; ++i) queue.push(std::uint64_t(i));
  EXPECT_EQ(queue.producer_size(), kSegment + 10);
  std::vector<std::uint64_t> drained;
  // Stop five short of the boundary, then take a batch that straddles it.
  EXPECT_EQ(queue.pop_bulk(drained, kSegment - 5), kSegment - 5);
  EXPECT_EQ(queue.pop_bulk(drained, 10), 10u);
  ASSERT_EQ(drained.size(), kSegment + 5);
  for (std::uint64_t i = 0; i < drained.size(); ++i) ASSERT_EQ(drained[i], i);
  // max = 0 is a no-op even with items queued; a larger max takes only
  // what is there.
  EXPECT_EQ(queue.pop_bulk(drained, 0), 0u);
  EXPECT_EQ(queue.producer_size(), 5u);
  EXPECT_EQ(queue.pop_bulk(drained, 100), 5u);
  EXPECT_EQ(queue.producer_size(), 0u);
  EXPECT_EQ(queue.pop_bulk(drained, 100), 0u);

  // Random batches with random limits, appended in FIFO order.
  drained.clear();
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  Rng rng(11);
  for (int round = 0; round < 2000; ++round) {
    for (std::uint64_t pushes = rng.next_below(2 * kSegment); pushes > 0;
         --pushes) {
      queue.push(std::uint64_t(next_push++));
    }
    const std::size_t max = rng.next_below(2 * kSegment);
    const std::size_t before = drained.size();
    const std::size_t got = queue.pop_bulk(drained, max);
    // Never past `max` or the queue's length, and never nothing when
    // both allow an item (a batch may stop at the producer position the
    // consumer last cached).
    ASSERT_LE(got, std::min<std::uint64_t>(max, next_push - next_pop));
    ASSERT_EQ(got == 0, max == 0 || next_push == next_pop);
    ASSERT_EQ(drained.size(), before + got);
    for (std::size_t i = before; i < drained.size(); ++i) {
      ASSERT_EQ(drained[i], next_pop);
      ++next_pop;
    }
  }
}

TEST(RuntimeSpsc, DrainedFollowsPushAndPop) {
  // quiesce() reads drained() on every link and control queue; it must
  // follow the cursors exactly, through pop_bulk and segment changes.
  SpscQueue<std::uint64_t> queue;
  EXPECT_TRUE(queue.drained());
  queue.push(std::uint64_t(0));
  EXPECT_FALSE(queue.drained());
  std::uint64_t out = 0;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_TRUE(queue.drained());
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_TRUE(queue.drained());

  // Positions 1 .. kSegment + 3: the second batch straddles the first
  // segment boundary (position kSegment).
  for (std::uint64_t i = 1; i <= kSegment + 3; ++i) queue.push(std::uint64_t(i));
  EXPECT_FALSE(queue.drained());
  std::vector<std::uint64_t> batch;
  EXPECT_EQ(queue.pop_bulk(batch, kSegment - 3), kSegment - 3);
  EXPECT_FALSE(queue.drained());
  EXPECT_EQ(queue.pop_bulk(batch, 10), 6u);
  EXPECT_TRUE(queue.drained());

  // try_pop into the next segment: fill up to position 2 * kSegment.
  for (std::uint64_t i = kSegment + 4; i <= 2 * kSegment; ++i) {
    queue.push(std::uint64_t(i));
  }
  EXPECT_FALSE(queue.drained());
  while (queue.try_pop(out)) {
  }
  EXPECT_EQ(out, 2 * kSegment);
  EXPECT_TRUE(queue.drained());
  queue.push(std::uint64_t(2 * kSegment + 1));
  EXPECT_FALSE(queue.drained());
  batch.clear();
  EXPECT_EQ(queue.pop_bulk(batch, kSegment), 1u);
  EXPECT_TRUE(queue.drained());
}

// Items still queued when the queue dies are destroyed with it, across
// segments (ASan's leak check and the use count both see a miss).
TEST(RuntimeSpsc, DestroysItemsLeftInTheQueue) {
  const auto token = std::make_shared<int>(1);
  {
    SpscQueue<std::shared_ptr<int>> queue;
    for (std::size_t i = 0; i < 3 * kSegment; ++i) {
      queue.push(std::shared_ptr<int>(token));
    }
    std::shared_ptr<int> out;
    for (std::size_t i = 0; i < kSegment + 1; ++i) ASSERT_TRUE(queue.try_pop(out));
    out.reset();
    EXPECT_EQ(token.use_count(), static_cast<long>(2 * kSegment));
  }
  EXPECT_EQ(token.use_count(), 1);
}

// The cross-thread contract, exactly as the transport uses it: one
// producer pushing without pause, one consumer draining. Run under TSan
// this exercises the acquire/release protocol, the segment hand-over
// and the spare exchange; in any build the checksum catches lost,
// duplicated or reordered items.
TEST(RuntimeSpsc, TwoThreadStressKeepsOrderAndCount) {
  constexpr std::uint64_t kItems = 100000;
  SpscQueue<std::uint64_t> queue;
  std::atomic<bool> done{false};
  std::uint64_t received = 0;
  std::uint64_t checksum = 0;
  std::thread consumer([&] {
    std::uint64_t out = 0;
    for (;;) {
      if (queue.try_pop(out)) {
        // FIFO: items arrive exactly in push order.
        ASSERT_EQ(out, received);
        ++received;
        checksum += out * 2654435761u;
      } else if (done.load(std::memory_order_acquire)) {
        if (!queue.try_pop(out)) break;
        ASSERT_EQ(out, received);
        ++received;
        checksum += out * 2654435761u;
      } else {
        // Busy-spinning here starves the producer on shared cores (the
        // CI box can be single-core); the real transport parks instead.
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t expected_checksum = 0;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    queue.push(std::uint64_t(i));
    expected_checksum += i * 2654435761u;
    // Occasional pauses let the consumer catch up, so segments are
    // recycled through the spare as well as freshly allocated.
    if (i % 1000 == 0) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(received, kItems);
  EXPECT_EQ(checksum, expected_checksum);
}

// Cross-thread bulk drain, as the pool uses it: the consumer pulls
// whole bursts, at most one segment's worth per call, while the
// producer pushes. Under TSan this exercises pop_bulk's single cursor
// publish across segment boundaries; in any build the sequence check
// catches lost, duplicated or reordered items.
TEST(RuntimeSpsc, PopBulkTwoThreadStressKeepsOrderAndCount) {
  constexpr std::uint64_t kItems = 100000;
  SpscQueue<std::uint64_t> queue;
  std::atomic<bool> done{false};
  std::uint64_t received = 0;
  std::uint64_t checksum = 0;
  std::thread consumer([&] {
    std::vector<std::uint64_t> batch;
    for (;;) {
      batch.clear();
      if (queue.pop_bulk(batch, kSegment) > 0) {
        for (const std::uint64_t item : batch) {
          ASSERT_EQ(item, received);
          ++received;
          checksum += item * 2654435761u;
        }
      } else if (done.load(std::memory_order_acquire)) {
        if (queue.pop_bulk(batch, kSegment) == 0) break;
        for (const std::uint64_t item : batch) {
          ASSERT_EQ(item, received);
          ++received;
          checksum += item * 2654435761u;
        }
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t expected_checksum = 0;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    queue.push(std::uint64_t(i));
    expected_checksum += i * 2654435761u;
    if (i % 1000 == 0) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(received, kItems);
  EXPECT_EQ(checksum, expected_checksum);
}

// -------------------------------------------------------------- timer wheel

TEST(RuntimeWheel, FiresInDeadlineOrderAcrossSlots) {
  TimerWheel wheel(/*tick_us=*/10);
  std::vector<int> fired;
  // Deliberately scheduled out of order, with deadlines that hash to
  // scattered slots.
  wheel.schedule_at(95, [&] { fired.push_back(3); });
  wheel.schedule_at(15, [&] { fired.push_back(1); });
  wheel.schedule_at(40, [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);
  EXPECT_EQ(wheel.advance(14), 0u);
  EXPECT_EQ(wheel.advance(95), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(RuntimeWheel, SameDeadlineFiresInScheduleOrder) {
  TimerWheel wheel(10);
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    wheel.schedule_at(100, [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(wheel.advance(100), 5u);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RuntimeWheel, CancelledTimerNeverFires) {
  TimerWheel wheel(10);
  bool fired = false;
  const sim::TimerToken token = wheel.schedule_at(50, [&] { fired = true; });
  EXPECT_TRUE(wheel.cancel(token));
  EXPECT_FALSE(wheel.cancel(token));  // already gone
  EXPECT_EQ(wheel.advance(1000), 0u);
  EXPECT_FALSE(fired);
}

TEST(RuntimeWheel, DistantDeadlineSurvivesWholeRevolutions) {
  // tick 10 and 256 slots: one revolution is 2560us. A timer 3+
  // revolutions out must stay put while the cursor laps its slot.
  TimerWheel wheel(10);
  bool fired = false;
  wheel.schedule_at(8000, [&] { fired = true; });
  for (SimTime t = 100; t <= 7900; t += 100) {
    ASSERT_EQ(wheel.advance(t), 0u) << "fired early at t=" << t;
  }
  EXPECT_EQ(wheel.next_deadline(), std::optional<SimTime>(8000));
  EXPECT_EQ(wheel.advance(8000), 1u);
  EXPECT_TRUE(fired);
}

// Property test: the wheel agrees with a multimap reference model under
// a random schedule/cancel/advance workload.
TEST(RuntimeWheel, AgreesWithReferenceModelUnderRandomWorkload) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    TimerWheel wheel(/*tick_us=*/16);
    std::multimap<SimTime, sim::TimerToken> model;  // deadline -> token
    std::vector<std::pair<SimTime, sim::TimerToken>> fired;
    SimTime now = 0;
    for (int op = 0; op < 2000; ++op) {
      const std::uint64_t dice = rng.next_below(10);
      if (dice < 5) {  // schedule at now + [0, 5000)
        const SimTime deadline = now + rng.next_below(5000);
        const sim::TimerToken token = wheel.schedule_at(
            deadline, [&fired, deadline] { fired.emplace_back(deadline, 0); });
        model.emplace(deadline, token);
      } else if (dice < 7) {  // cancel a random pending timer
        if (!model.empty()) {
          auto it = model.begin();
          std::advance(it, static_cast<long>(rng.next_below(model.size())));
          EXPECT_TRUE(wheel.cancel(it->second));
          model.erase(it);
        }
      } else {  // advance by [0, 2000)
        now += rng.next_below(2000);
        const std::size_t before = fired.size();
        const std::size_t count = wheel.advance(now);
        // Everything due in the model must have fired, nothing else.
        std::size_t due = 0;
        while (!model.empty() && model.begin()->first <= now) {
          model.erase(model.begin());
          ++due;
        }
        ASSERT_EQ(count, due) << "seed " << seed << " now " << now;
        ASSERT_EQ(fired.size() - before, due);
        // Fired deadlines are ordered within this batch.
        for (std::size_t i = before + 1; i < fired.size(); ++i) {
          ASSERT_LE(fired[i - 1].first, fired[i].first);
        }
      }
      ASSERT_EQ(wheel.pending(), model.size());
    }
  }
}

// -------------------------------------------------------------- fleet

TEST(RuntimeFleet, FormsOnePrimaryOnStart) {
  FleetOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  RuntimeFleet fleet(options);
  fleet.start();
  const auto probes = fleet.probe();
  ASSERT_EQ(probes.size(), 5u);
  for (const ProcessProbe& probe : probes) {
    EXPECT_TRUE(probe.alive);
    EXPECT_TRUE(probe.is_primary) << probe.id.value();
    EXPECT_EQ(probe.formed_count, 1u);
  }
  EXPECT_EQ(RuntimeFleet::distinct_primaries(probes), 1u);
  fleet.stop();
}

TEST(RuntimeFleet, MajoritySideKeepsPrimaryThroughPartition) {
  FleetOptions options;
  options.kind = ProtocolKind::kBasic;
  options.n = 5;
  RuntimeFleet fleet(options);
  fleet.start();

  ProcessSet majority;
  ProcessSet minority;
  for (std::uint32_t i = 0; i < 3; ++i) majority.insert(ProcessId(i));
  for (std::uint32_t i = 3; i < 5; ++i) minority.insert(ProcessId(i));
  fleet.partition({majority, minority});

  auto probes = fleet.probe();
  EXPECT_EQ(RuntimeFleet::distinct_primaries(probes), 1u);
  for (const ProcessProbe& probe : probes) {
    const bool in_majority = majority.contains(probe.id);
    EXPECT_EQ(probe.is_primary, in_majority) << probe.id.value();
  }

  fleet.merge();
  probes = fleet.probe();
  EXPECT_EQ(RuntimeFleet::distinct_primaries(probes), 1u);
  for (const ProcessProbe& probe : probes) {
    EXPECT_TRUE(probe.is_primary) << probe.id.value();
  }
  fleet.stop();
}

TEST(RuntimeFleet, CrashRecoverChurnPreservesC1) {
  FleetOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 4;
  RuntimeFleet fleet(options);
  fleet.start();
  for (int round = 0; round < 3; ++round) {
    fleet.crash(ProcessId(0));
    EXPECT_LE(RuntimeFleet::distinct_primaries(fleet.probe()), 1u);
    fleet.crash(ProcessId(1));
    EXPECT_LE(RuntimeFleet::distinct_primaries(fleet.probe()), 1u);
    fleet.recover(ProcessId(0));
    EXPECT_LE(RuntimeFleet::distinct_primaries(fleet.probe()), 1u);
    fleet.recover(ProcessId(1));
    fleet.merge();
    const auto probes = fleet.probe();
    EXPECT_EQ(RuntimeFleet::distinct_primaries(probes), 1u);
    for (const ProcessProbe& probe : probes) {
      EXPECT_TRUE(probe.is_primary) << probe.id.value();
    }
  }
  fleet.stop();
}

TEST(RuntimeFleet, StopIsIdempotentAndSummariesAreStable) {
  FleetOptions options;
  options.n = 3;
  RuntimeFleet fleet(options);
  fleet.start();
  fleet.stop();
  fleet.stop();
  const std::string summary = fleet.outcome_summary();
  EXPECT_FALSE(summary.empty());
  EXPECT_EQ(fleet.outcome_digest(), fnv1a64(summary));
}

// -------------------------------------------------------------- cross-check

// The acceptance gate: the same seeded scenario, run through the DES
// and through the M:N pool at every requested worker count, must
// produce identical outcome transcripts (views installed, sessions
// formed with numbers / members / rounds, final states) — on every one
// of eight seeds, for both paper protocols, with probes off and on.
TEST(RuntimeCrossCheck, DigestsMatchOnEightSeeds) {
  for (const ProtocolKind kind :
       {ProtocolKind::kBasic, ProtocolKind::kOptimized}) {
    for (const bool probes : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const CrossCheckResult result =
            run_scenario(kind, /*n=*/5, seed, /*steps=*/10, probes);
        const std::string where = std::string(to_string(kind)) + " seed " +
                                  std::to_string(seed) +
                                  (probes ? " probes on" : " probes off");
        EXPECT_TRUE(result.digests_equal)
            << where << "\n--- DES ---\n"
            << result.sim_summary << "--- pool (divergent) ---\n"
            << result.pool_divergent_summary;
        EXPECT_TRUE(result.c1_clean) << where;
        // The default harness runs the pool at W ∈ {1, 2, 4, n}; every
        // run must land on the DES digest exactly.
        ASSERT_EQ(result.pool.size(), 4u);
        EXPECT_EQ(result.pool.back().workers, 5u);
        for (const PoolCheck& check : result.pool) {
          EXPECT_EQ(check.digest, result.sim_digest)
              << where << " W=" << check.workers;
        }
      }
    }
  }
}

TEST(RuntimeCrossCheck, ScenarioGenerationIsDeterministic) {
  const auto a = make_scenario(5, 42, 10);
  const auto b = make_scenario(5, 42, 10);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].to_string(), b[i].to_string());
  }
  // A different seed produces a different script (overwhelmingly).
  const auto c = make_scenario(5, 43, 10);
  std::string sa;
  std::string sc;
  for (const auto& step : a) sa += step.to_string() + ";";
  for (const auto& step : c) sc += step.to_string() + ";";
  EXPECT_NE(sa, sc);
}

TEST(RuntimeCrossCheck, RejectsTimingDependentKinds) {
  EXPECT_THROW(
      { (void)run_scenario(ProtocolKind::kCentralized, 5, 1); },
      InvariantViolation);
}

}  // namespace
}  // namespace dynvote::runtime
