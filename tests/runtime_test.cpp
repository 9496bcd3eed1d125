// Tests for the pool runtime (src/runtime/): the SPSC queue in
// isolation (including cross-thread stress cases meant to run under
// TSan — tools/run_experiments.sh wires the Runtime* prefixes into its
// TSan pass), the fleet lifecycle, and the DES-as-oracle cross-check
// that pins the pool at every worker count to the DES's outcome
// digests seed by seed, with the transcript diff that names where a
// mismatch starts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/crosscheck.hpp"
#include "runtime/fleet.hpp"
#include "runtime/spsc_queue.hpp"
#include "util/ensure.hpp"
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

// With no worker running, nothing drains the queue a verb posts to, so
// the verb fails at once and says why, instead of waiting out the 60 s
// stuck-handler timeout.
TEST(RuntimeFleet, VerbOutsideTheLifecycleFailsAtOnce) {
  const auto expect_fails_fast = [](const auto& verb, const char* what) {
    const auto start = std::chrono::steady_clock::now();
    try {
      verb();
      ADD_FAILURE() << what << " did not throw";
    } catch (const InvariantViolation& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("not running (not started, or stopped)"),
                std::string::npos)
          << what << ": " << message;
      EXPECT_NE(message.find("control queue holds items"), std::string::npos)
          << what << ": " << message;
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1))
        << what;
  };
  FleetOptions options;
  options.n = 3;
  RuntimeFleet before(options);
  expect_fails_fast([&before] { before.merge(); }, "merge() before start()");

  RuntimeFleet after(options);
  after.start();
  after.stop();
  expect_fails_fast([&after] { (void)after.probe(); }, "probe() after stop()");
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
            << where << " W=" << result.divergent_workers << ": "
            << (result.divergence ? result.divergence->to_string() : "")
            << "\n--- DES ---\n"
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

// Hand-written transcript pairs in append_outcome_line's format: the
// diff names the process, the entry's index in its line and both
// entries, and finds nothing in equal transcripts.
const std::string kDesTranscript =
    "p0: V1={p0,p1} F1r2={p0,p1} | primary=({p0,p1},1) formed=1\n"
    "p1: V1={p0,p1} F1r2={p0,p1} | primary=({p0,p1},1) formed=1\n";

std::string diff_against_des(const std::string& pool) {
  const std::optional<TranscriptDiff> d =
      diff_transcripts(kDesTranscript, pool);
  return d ? d->to_string() : std::string("equal");
}

TEST(RuntimeCrossCheck, TranscriptDiffOfEqualTranscriptsIsEmpty) {
  EXPECT_EQ(diff_against_des(kDesTranscript), "equal");
  EXPECT_FALSE(diff_transcripts("", "").has_value());
}

TEST(RuntimeCrossCheck, TranscriptDiffNamesADifferingEntry) {
  EXPECT_EQ(
      diff_against_des(
          "p0: V1={p0,p1} F1r2={p0,p1} | primary=({p0,p1},1) formed=1\n"
          "p1: V1={p0,p1} F1r3={p0,p1} | primary=({p0,p1},1) formed=1\n"),
      "p1 entry 2: DES `F1r2={p0,p1}`, pool `F1r3={p0,p1}`");
}

// The pool line moves on to the next entry, so the diff shows it there.
TEST(RuntimeCrossCheck, TranscriptDiffNamesAMissingEntry) {
  EXPECT_EQ(
      diff_against_des(
          "p0: V1={p0,p1} | primary=({p0,p1},1) formed=1\n"
          "p1: V1={p0,p1} F1r2={p0,p1} | primary=({p0,p1},1) formed=1\n"),
      "p0 entry 2: DES `F1r2={p0,p1}`, pool `|`");
}

TEST(RuntimeCrossCheck, TranscriptDiffNamesADifferingFinalState) {
  EXPECT_EQ(
      diff_against_des(
          "p0: V1={p0,p1} F1r2={p0,p1} | primary=({p0,p1},1) formed=2\n"
          "p1: V1={p0,p1} F1r2={p0,p1} | primary=({p0,p1},1) formed=1\n"),
      "p0 entry 5: DES `formed=1`, pool `formed=2`");
}

// The DES has no such line, so the label comes from the pool's.
TEST(RuntimeCrossCheck, TranscriptDiffNamesAnExtraProcessLine) {
  EXPECT_EQ(diff_against_des(kDesTranscript + "p2: | primary=(∞,-1) formed=0\n"),
            "p2 entry 0: DES none, pool `p2:`");
}

TEST(RuntimeCrossCheck, TranscriptDiffNamesAProcessLineThePoolLacks) {
  EXPECT_EQ(diff_against_des(
                "p0: V1={p0,p1} F1r2={p0,p1} | primary=({p0,p1},1) formed=1\n"),
            "p1 entry 0: DES `p1:`, pool none");
}

TEST(RuntimeCrossCheck, TranscriptDiffNamesALineThatEndsEarly) {
  EXPECT_EQ(
      diff_against_des(
          "p0: V1={p0,p1} F1r2={p0,p1} | primary=({p0,p1},1)\n"
          "p1: V1={p0,p1} F1r2={p0,p1} | primary=({p0,p1},1) formed=1\n"),
      "p0 entry 5: DES `formed=1`, pool none");
}

// When every pool run agrees with the DES, the result names no
// divergent run: worker count 0, no diff and no pool transcript.
TEST(RuntimeCrossCheck, AgreeingRunRecordsNoDivergence) {
  const CrossCheckResult result =
      run_scenario(ProtocolKind::kOptimized, /*n=*/4, /*seed=*/1,
                   /*steps=*/6, /*probes=*/false, {1, 2});
  ASSERT_TRUE(result.digests_equal);
  EXPECT_EQ(result.divergent_workers, 0u);
  EXPECT_FALSE(result.divergence.has_value());
  EXPECT_TRUE(result.pool_divergent_summary.empty());
  EXPECT_FALSE(result.sim_summary.empty());
}

/// The memberships of the views `label` installed, in order, read from
/// its line of an outcome transcript.
std::vector<std::string> views_in(const std::string& transcript,
                                  const std::string& label) {
  const std::size_t line = transcript.find(label + ":");
  std::istringstream entries(
      transcript.substr(line, transcript.find('\n', line) - line));
  std::vector<std::string> views;
  for (std::string entry; entries >> entry;) {
    if (entry[0] == 'V') views.push_back(entry.substr(entry.find('=') + 1));
  }
  return views;
}

// A hand-written script that merges two of three components, then
// crashes and recovers a member of the third and rejoins it piece by
// piece: the pool at every worker count must write the DES's
// transcript, and the component the first merge leaves out keeps its
// view through it.
TEST(RuntimeCrossCheck, PartialMergesMatchTheDes) {
  using Kind = ScheduleEvent::Kind;
  const ProcessSet a = ProcessSet::of({0, 1});
  const ProcessSet b = ProcessSet::of({2, 3});
  const ProcessSet c = ProcessSet::of({4, 5});
  const std::vector<ScheduleEvent> script = {
      {0, Kind::kPartition, {a, b, c}, {}},
      {0, Kind::kMerge, {a, b}, {}},
      {0, Kind::kCrash, {}, ProcessId(4)},
      {0, Kind::kRecover, {}, ProcessId(4)},
      {0, Kind::kMerge, {ProcessSet::of({4}), ProcessSet::of({5})}, {}},
      {0, Kind::kMerge, {a.set_union(b), c}, {}},
  };
  for (const ProtocolKind kind :
       {ProtocolKind::kBasic, ProtocolKind::kOptimized}) {
    bool c1_clean = true;
    const std::string des = des_summary(kind, /*n=*/6, /*seed=*/1, script,
                                        c1_clean);
    EXPECT_TRUE(c1_clean) << to_string(kind);
    const std::string everyone = ProcessSet::range(6).to_string();
    EXPECT_EQ(views_in(des, "p5"),
              (std::vector<std::string>{everyone, "{p4,p5}", "{p5}",
                                        "{p4,p5}", everyone}))
        << des;
    for (const std::uint32_t workers : {1u, 2u, 4u, 6u}) {
      FleetOptions options;
      options.kind = kind;
      options.n = 6;
      options.workers = workers;
      RuntimeFleet fleet(options);
      fleet.start();
      for (const ScheduleEvent& event : script) apply_event(fleet, event);
      fleet.stop();
      EXPECT_EQ(fleet.outcome_summary(), des)
          << to_string(kind) << " W=" << workers;
    }
  }
}

TEST(RuntimeCrossCheck, RejectsTimingDependentKinds) {
  EXPECT_THROW(
      { (void)run_scenario(ProtocolKind::kCentralized, 5, 1); },
      InvariantViolation);
}

}  // namespace
}  // namespace dynvote::runtime
