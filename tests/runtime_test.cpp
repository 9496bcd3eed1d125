// Tests for the pool runtime (src/runtime/): the SPSC ring and
// timer wheel in isolation (including cross-thread stress cases meant
// to run under TSan — tools/run_experiments.sh wires the Runtime*
// prefixes into its TSan pass), the fleet lifecycle, and the
// DES-as-oracle cross-check that pins the pool at every worker count
// to the DES's outcome digests seed by seed.
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

// ---------------------------------------------------------------- SPSC ring

TEST(RuntimeSpsc, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(256).capacity(), 256u);
  EXPECT_EQ(SpscQueue<int>(257).capacity(), 512u);
}

TEST(RuntimeSpsc, FifoAcrossManyWraps) {
  SpscQueue<std::uint64_t> queue(4);
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  // Irregular push/pop bursts force every wrap alignment.
  Rng rng(7);
  for (int round = 0; round < 10000; ++round) {
    std::uint64_t pushes = rng.next_below(5);
    while (pushes-- > 0 && queue.try_push(std::uint64_t(next_push))) {
      ++next_push;
    }
    std::uint64_t pops = rng.next_below(5);
    std::uint64_t out = 0;
    while (pops-- > 0 && queue.try_pop(out)) {
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
  EXPECT_TRUE(queue.empty());
}

TEST(RuntimeSpsc, FullRingRejectsWithoutConsumingTheValue) {
  SpscQueue<std::unique_ptr<int>> queue(2);
  ASSERT_TRUE(queue.try_push(std::make_unique<int>(1)));
  ASSERT_TRUE(queue.try_push(std::make_unique<int>(2)));
  auto retained = std::make_unique<int>(3);
  ASSERT_FALSE(queue.try_push(std::move(retained)));
  // A failed push must leave the value intact for the caller's retry.
  ASSERT_NE(retained, nullptr);
  EXPECT_EQ(*retained, 3);
  std::unique_ptr<int> out;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(*out, 1);
  ASSERT_TRUE(queue.try_push(std::move(retained)));
  EXPECT_EQ(retained, nullptr);
}

// The cross-thread contract, exactly as the transport uses it: one
// producer spinning on a small ring, one consumer draining. Run under
// TSan this exercises the acquire/release protocol; in any build the
// checksum catches lost, duplicated or reordered items.
TEST(RuntimeSpsc, TwoThreadStressKeepsOrderAndCount) {
  constexpr std::uint64_t kItems = 100000;
  SpscQueue<std::uint64_t> queue(8);  // tiny ring maximizes contention
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
    while (!queue.try_push(std::uint64_t(i))) std::this_thread::yield();
    expected_checksum += i * 2654435761u;
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(received, kItems);
  EXPECT_EQ(checksum, expected_checksum);
}

TEST(RuntimeSpsc, PopBulkKeepsFifoAcrossWrapsAndRespectsMax) {
  SpscQueue<std::uint64_t> queue(4);
  std::vector<std::uint64_t> drained;
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  Rng rng(11);
  for (int round = 0; round < 10000; ++round) {
    std::uint64_t pushes = rng.next_below(5);
    while (pushes-- > 0 && queue.try_push(std::uint64_t(next_push))) {
      ++next_push;
    }
    const std::size_t max = rng.next_below(5);
    const std::size_t before = drained.size();
    const std::size_t got = queue.pop_bulk(drained, max);
    ASSERT_LE(got, max);
    ASSERT_EQ(drained.size(), before + got);
    // Appended in FIFO order, regardless of wrap alignment.
    for (std::size_t i = before; i < drained.size(); ++i) {
      ASSERT_EQ(drained[i], next_pop);
      ++next_pop;
    }
  }
  while (queue.pop_bulk(drained, 64) > 0) {
  }
  EXPECT_EQ(drained.size(), next_push);
  for (std::uint64_t i = 0; i < next_push; ++i) ASSERT_EQ(drained[i], i);
  EXPECT_TRUE(queue.empty());
  // max = 0 is a no-op even with items queued.
  ASSERT_TRUE(queue.try_push(7u));
  EXPECT_EQ(queue.pop_bulk(drained, 0), 0u);
  EXPECT_FALSE(queue.empty());
}

// Cross-thread bulk drain, as the pool uses it: the consumer pulls
// whole bursts while the producer spins on a tiny ring. Under TSan this
// exercises pop_bulk's single cursor publish; in any build the sequence
// check catches lost, duplicated or reordered items.
TEST(RuntimeSpsc, PopBulkTwoThreadStressKeepsOrderAndCount) {
  constexpr std::uint64_t kItems = 100000;
  SpscQueue<std::uint64_t> queue(8);
  std::atomic<bool> done{false};
  std::uint64_t received = 0;
  std::uint64_t checksum = 0;
  std::thread consumer([&] {
    std::vector<std::uint64_t> batch;
    for (;;) {
      batch.clear();
      if (queue.pop_bulk(batch, queue.capacity()) > 0) {
        for (const std::uint64_t item : batch) {
          ASSERT_EQ(item, received);
          ++received;
          checksum += item * 2654435761u;
        }
      } else if (done.load(std::memory_order_acquire)) {
        if (queue.pop_bulk(batch, queue.capacity()) == 0) break;
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
    while (!queue.try_push(std::uint64_t(i))) std::this_thread::yield();
    expected_checksum += i * 2654435761u;
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
