// Tests for the perf-critical data structures and the parallel sweep:
//
//   - ProcessSet's inline-bitset fast paths pinned to a std::set model
//     on randomized inputs straddling the 256-id boundary, so the bitset
//     and sorted-vector representations can never diverge silently, and
//     its word-wise == and <=> pinned to the member lists' order;
//   - the InlineFunction size budget of the EventQueue's slab and the
//     drained-vs-event-limit distinction of drain();
//   - the sweep runner's determinism contract: index-ordered results,
//     identical output at any thread count (including the full E1
//     trace.json byte-for-byte through a 4-thread pool), and exception
//     propagation;
//   - trace_json_string as a byte-identical fast path for
//     trace_to_json(...).dump().
#include <algorithm>
#include <compare>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "harness/trace_replay.hpp"
#include "sim/event_queue.hpp"
#include "util/ensure.hpp"
#include "util/inline_function.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

// ---------------------------------------------------------------------------
// ProcessSet: bitset fast paths vs a std::set<uint32_t> model.

using Model = std::set<std::uint32_t>;

ProcessSet from_model(const Model& m) {
  ProcessSet s;
  for (const std::uint32_t id : m) s.insert(ProcessId(id));
  return s;
}

/// Random model set. `max_id` above ProcessSet::kSmallIdLimit produces
/// sets that straddle the inline boundary (dynamic extension words);
/// `max_id` = kProcessIdLimit reaches the widest legal bitset.
Model random_model(Rng& rng, std::uint32_t max_id) {
  Model m;
  const std::uint64_t count = rng.next_below(12);
  for (std::uint64_t i = 0; i < count; ++i) {
    // Concentrate a quarter of the draws just below max_id so the
    // boundary tiers actually produce members past the boundary they
    // probe (a uniform draw over [0, 2^20) almost never lands there).
    const bool high = max_id > 64 && rng.next_below(4) == 0;
    const std::uint32_t id =
        high ? max_id - 1 - static_cast<std::uint32_t>(rng.next_below(64))
             : static_cast<std::uint32_t>(rng.next_below(max_id));
    m.insert(id);
  }
  return m;
}

Model model_union(const Model& a, const Model& b) {
  Model out = a;
  out.insert(b.begin(), b.end());
  return out;
}

Model model_intersection(const Model& a, const Model& b) {
  Model out;
  for (const std::uint32_t id : a) {
    if (b.count(id) != 0) out.insert(id);
  }
  return out;
}

Model model_difference(const Model& a, const Model& b) {
  Model out;
  for (const std::uint32_t id : a) {
    if (b.count(id) == 0) out.insert(id);
  }
  return out;
}

void expect_matches_model(const ProcessSet& s, const Model& m) {
  ASSERT_EQ(s.size(), m.size());
  auto it = m.begin();
  for (const ProcessId p : s) {
    EXPECT_EQ(p.value(), *it) << "iteration order diverged from the model";
    ++it;
  }
  const bool all_small = std::all_of(m.begin(), m.end(), [](std::uint32_t id) {
    return id < ProcessSet::kSmallIdLimit;
  });
  EXPECT_EQ(s.uses_inline_bits(), all_small);
  if (m.empty()) {
    EXPECT_FALSE(s.max_member().has_value());
  } else {
    ASSERT_TRUE(s.max_member().has_value());
    EXPECT_EQ(s.max_member()->value(), *m.rbegin());
  }
}

TEST(ProcessSetProperty, PredicatesAgreeWithModelAcrossTheBitsetBoundary) {
  Rng rng(20260805);
  // max_id 40: pure-inline pairs. 320: pairs straddling kSmallIdLimit
  // (mixed inline/extension widths). 2000: four-digit ids across
  // multiple extension words. 5000: the four-accumulator walk over more
  // than 32 extension words on both operands. kProcessIdLimit: ids up to
  // 2^20 - 1, the widest legal bitset (16,380 extension words); the
  // max_id probe below is the first illegal id, which no set contains.
  for (const std::uint32_t max_id : {40u, 320u, 2000u, 5000u, kProcessIdLimit}) {
    for (int round = 0; round < 500; ++round) {
      const Model ma = random_model(rng, max_id);
      const Model mb = random_model(rng, max_id);
      const ProcessSet a = from_model(ma);
      const ProcessSet b = from_model(mb);
      expect_matches_model(a, ma);
      expect_matches_model(b, mb);

      EXPECT_EQ(a.intersection_size(b), model_intersection(ma, mb).size());
      EXPECT_EQ(a.intersects(b), !model_intersection(ma, mb).empty());
      EXPECT_EQ(a.is_subset_of(b),
                std::includes(mb.begin(), mb.end(), ma.begin(), ma.end()));
      EXPECT_EQ(a.contains_majority_of(b),
                2 * model_intersection(ma, mb).size() > mb.size());
      // The empty-set guard: exact-half of nothing is false, not vacuous.
      EXPECT_EQ(a.contains_exact_half_of(b),
                !mb.empty() &&
                    2 * model_intersection(ma, mb).size() == mb.size());
      for (const std::uint32_t probe : {std::uint32_t{0}, max_id / 2, max_id}) {
        EXPECT_EQ(a.contains(ProcessId(probe)), ma.count(probe) != 0);
      }

      expect_matches_model(a.set_union(b), model_union(ma, mb));
      expect_matches_model(a.set_intersection(b), model_intersection(ma, mb));
      expect_matches_model(a.set_difference(b), model_difference(ma, mb));
    }
  }
}

TEST(ProcessSetProperty, InsertEraseMaintainTheBitsetIncrementally) {
  Rng rng(77);
  Model m;
  ProcessSet s;
  for (int step = 0; step < 3000; ++step) {
    // Cross the inline boundary in both directions and reach the top of
    // the id range: inserting an id >= kSmallIdLimit must grow the
    // extension words (up to the widest legal bitset), and erasing the
    // last id past the boundary must trim them back to the inline words.
    std::uint32_t id;
    const std::uint64_t tier = rng.next_below(8);
    if (tier < 5) {
      id = static_cast<std::uint32_t>(rng.next_below(300));
    } else if (tier < 7) {
      id = static_cast<std::uint32_t>(256 + rng.next_below(1200));
    } else {
      id = kProcessIdLimit - 4 + static_cast<std::uint32_t>(rng.next_below(4));
    }
    if (rng.next_bool(0.6)) {
      EXPECT_EQ(s.insert(ProcessId(id)), m.insert(id).second);
    } else {
      EXPECT_EQ(s.erase(ProcessId(id)), m.erase(id) != 0);
    }
    expect_matches_model(s, m);
  }
}

TEST(ProcessSetProperty, MixedWidthPairsKeepTheWordWiseFastPath) {
  // One operand holds an id >= kSmallIdLimit (extension words), the
  // other only inline ids: the walks cover the common extension prefix,
  // and the predicates must agree with first principles in both
  // argument orders.
  ProcessSet small = ProcessSet::of({1, 3, 200});
  ProcessSet wide = ProcessSet::of({1, 3, 200, 1000});
  EXPECT_TRUE(small.uses_inline_bits());
  EXPECT_FALSE(wide.uses_inline_bits());

  EXPECT_EQ(small.intersection_size(wide), 3u);
  EXPECT_EQ(wide.intersection_size(small), 3u);
  EXPECT_TRUE(small.is_subset_of(wide));
  EXPECT_FALSE(wide.is_subset_of(small));
  EXPECT_TRUE(small.intersects(wide));
  EXPECT_TRUE(wide.contains_majority_of(small));
  EXPECT_FALSE(ProcessSet::of({1000}).contains_majority_of(small));
}

TEST(ProcessSetProperty, ErasingTheLastBigIdRestoresTheInlinePath) {
  // Pins uses_inline_bits() across the 256 boundary: insert big id ->
  // erase it -> inline path restored, with no stale extension words left
  // behind.
  ProcessSet s = ProcessSet::of({0, 5, 255});
  EXPECT_TRUE(s.uses_inline_bits());
  EXPECT_TRUE(s.insert(ProcessId(256)));
  EXPECT_FALSE(s.uses_inline_bits());
  EXPECT_TRUE(s.insert(ProcessId(4096)));
  EXPECT_TRUE(s.erase(ProcessId(4096)));
  EXPECT_FALSE(s.uses_inline_bits()) << "p256 still holds an extension word";
  EXPECT_TRUE(s.erase(ProcessId(256)));
  EXPECT_TRUE(s.uses_inline_bits()) << "last big id erased";
  EXPECT_EQ(s, ProcessSet::of({0, 5, 255}));

  // Same round trip with the largest legal id: the widest extension
  // trims back to nothing.
  EXPECT_TRUE(s.insert(ProcessId(kProcessIdLimit - 1)));
  EXPECT_FALSE(s.uses_inline_bits());
  EXPECT_TRUE(s.erase(ProcessId(kProcessIdLimit - 1)));
  EXPECT_TRUE(s.uses_inline_bits());
  EXPECT_EQ(s, ProcessSet::of({0, 5, 255}));
}

TEST(ProcessSetProperty, IdsStopBelowTheProcessIdLimit) {
  // [0, 2^20) is the one legal id range: the constructors, of(),
  // range() and insert() reject 2^20, and 2^20 - 1 lands on the
  // extension words like any other id.
  const std::uint32_t top = kProcessIdLimit - 1;
  ProcessSet s = ProcessSet::of({1, 300});
  EXPECT_THROW(s.insert(ProcessId(kProcessIdLimit)), InvariantViolation);
  EXPECT_EQ(s, ProcessSet::of({1, 300})) << "a rejected insert changes nothing";
  EXPECT_THROW(ProcessSet::of({1, kProcessIdLimit}), InvariantViolation);
  EXPECT_THROW(ProcessSet::range(kProcessIdLimit + 1), InvariantViolation);
  EXPECT_THROW(ProcessSet(std::vector<ProcessId>{ProcessId(kProcessIdLimit)}),
               InvariantViolation);

  EXPECT_TRUE(s.insert(ProcessId(top)));
  EXPECT_TRUE(s.contains(ProcessId(top)));
  EXPECT_FALSE(s.contains(ProcessId(kProcessIdLimit)));
  EXPECT_EQ(s.max_member(), ProcessId(top));
  EXPECT_EQ(s, ProcessSet::of({1, 300, top}));
  EXPECT_EQ(s, ProcessSet(std::vector<ProcessId>{ProcessId(top), ProcessId(1),
                                                 ProcessId(300)}));
  const ProcessSet all = ProcessSet::range(kProcessIdLimit);
  EXPECT_EQ(all.size(), kProcessIdLimit);
  EXPECT_EQ(all.max_member(), ProcessId(top));
  EXPECT_TRUE(s.is_subset_of(all));
  EXPECT_EQ(all.intersection_size(s), 3u);
  EXPECT_TRUE(ProcessSet::of({top}).intersects(s));
  EXPECT_FALSE(s.contains_majority_of(all));
  EXPECT_EQ(all.set_difference(s).size(), kProcessIdLimit - 3);
  EXPECT_EQ(s.set_intersection(ProcessSet::of({0, top})), ProcessSet::of({top}));
}

TEST(ProcessSetProperty, DegenerateQuorumPredicatesAreNotVacuouslyTrue) {
  // Paper 4.1's clause 2b splits a real previous quorum in half; an
  // empty `of` must not satisfy either succession predicate (2*0 == 0
  // used to make contains_exact_half_of vacuously true).
  const ProcessSet empty;
  const ProcessSet some = ProcessSet::of({0, 1, 2});
  EXPECT_FALSE(some.contains_exact_half_of(empty));
  EXPECT_FALSE(some.contains_majority_of(empty));
  EXPECT_FALSE(empty.contains_exact_half_of(empty));
  EXPECT_FALSE(empty.contains_majority_of(empty));
  // Nonempty halves still work.
  EXPECT_TRUE(ProcessSet::of({0, 1}).contains_exact_half_of(
      ProcessSet::of({0, 1, 2, 3})));
  EXPECT_FALSE(empty.contains_exact_half_of(ProcessSet::of({0, 1})));
}

TEST(ProcessSetProperty, OrderAndEqualityFollowTheMemberLists) {
  // operator== and operator<=> decide from the bitset words. LastFormed's
  // session table and Max_Ambiguous are ordered by them, so they must
  // give exactly the equality and lexicographic order of the member
  // lists, in both argument orders.
  const auto check = [](const ProcessSet& a, const ProcessSet& b) {
    const std::vector<ProcessId>& la = a.members();
    const std::vector<ProcessId>& lb = b.members();
    const std::strong_ordering lists = std::lexicographical_compare_three_way(
        la.begin(), la.end(), lb.begin(), lb.end());
    EXPECT_EQ(a == b, la == lb) << a.to_string() << " vs " << b.to_string();
    EXPECT_EQ(b == a, la == lb) << b.to_string() << " vs " << a.to_string();
    EXPECT_TRUE((a <=> b) == lists) << a.to_string() << " vs " << b.to_string();
    EXPECT_TRUE((b <=> a) == (0 <=> lists))
        << b.to_string() << " vs " << a.to_string();
  };

  Rng rng(20261017);
  for (const std::uint32_t max_id : {40u, 320u, 2000u, kProcessIdLimit}) {
    for (int round = 0; round < 500; ++round) {
      const Model ma = random_model(rng, max_id);
      Model mb;
      switch (rng.next_below(3)) {
        case 0:  // independent
          mb = random_model(rng, max_id);
          break;
        case 1: {  // a few ids toggled: long common prefixes
          mb = ma;
          for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
            const Model extra = random_model(rng, max_id);
            const bool from_a =
                !ma.empty() && (extra.empty() || rng.next_bool(0.5));
            if (!from_a && extra.empty()) continue;
            const std::uint32_t id =
                from_a ? *std::next(ma.begin(), static_cast<long>(
                                                    rng.next_below(ma.size())))
                       : *extra.begin();
            if (mb.erase(id) == 0) mb.insert(id);
          }
          break;
        }
        default:  // a prefix of a's list
          mb.insert(ma.begin(),
                    std::next(ma.begin(), static_cast<long>(rng.next_below(
                                              ma.size() + 1))));
          break;
      }
      check(from_model(ma), from_model(mb));
    }
  }

  // Prefix pairs and first differences on both sides of the inline limit
  // and just below 2^20.
  const std::uint32_t top = kProcessIdLimit - 1;
  const std::vector<ProcessSet> edges = {
      ProcessSet(),
      ProcessSet::of({1}),
      ProcessSet::of({1, 2}),
      ProcessSet::of({1, 3}),
      ProcessSet::of({2}),
      ProcessSet::of({255}),
      ProcessSet::of({256}),
      ProcessSet::of({255, 256}),
      ProcessSet::of({1, 255, 300}),
      ProcessSet::of({1, 256}),
      ProcessSet::of({1, 2, 256}),
      ProcessSet::of({300, 2000}),
      ProcessSet::of({300, top - 1}),
      ProcessSet::of({300, top}),
      ProcessSet::of({300, top - 1, top}),
      ProcessSet::of({top - 1}),
      ProcessSet::of({top}),
  };
  for (const ProcessSet& a : edges) {
    for (const ProcessSet& b : edges) check(a, b);
  }

  // One set, built five ways: the words must agree exactly (trimmed
  // extension words included).
  const ProcessSet by_constructor = ProcessSet::of({3, 255, 256, 70000, top});
  ProcessSet by_insert;
  for (const std::uint32_t id : {top, 70000u, 3u, 999999u, 256u, 255u, 5u}) {
    by_insert.insert(ProcessId(id));
  }
  by_insert.erase(ProcessId(999999));
  by_insert.erase(ProcessId(5));
  ProcessSet grown_and_trimmed = by_constructor;
  grown_and_trimmed.insert(ProcessId(4000));
  grown_and_trimmed.erase(ProcessId(4000));
  const ProcessSet by_algebra =
      ProcessSet::of({3, 255, 999})
          .set_union(ProcessSet::of({256, 70000, top}))
          .set_difference(ProcessSet::of({999, 1000}));
  const ProcessSet by_intersection =
      ProcessSet::of({3, 4, 255, 256, 70000, 70001, top})
          .set_intersection(ProcessSet::of({0, 3, 255, 256, 70000, top}));
  const std::vector<ProcessSet> same = {by_constructor, by_insert,
                                        grown_and_trimmed, by_algebra,
                                        by_intersection};
  for (const ProcessSet& a : same) {
    for (const ProcessSet& b : same) {
      EXPECT_EQ(a, b) << a.to_string() << " vs " << b.to_string();
      check(a, b);
    }
  }
  // Dropping the widest member trims back to a narrower equal set.
  ProcessSet narrowed = by_constructor;
  narrowed.erase(ProcessId(top));
  EXPECT_EQ(narrowed, ProcessSet::of({3, 255, 256, 70000}));
  check(narrowed, by_constructor);
}

// ---------------------------------------------------------------------------
// InlineFunction: the cache-line budget of the event-queue hot path.

TEST(InlineFunctionSize, EventQueueEntryIsExactlyTwoCacheLines) {
  // The 88-byte SBO capacity plus three dispatch pointers make the
  // 112-byte Action that fills one EventQueue slab slot (the heap itself
  // orders 24-byte keys). Any change to kInlineFunctionDefaultCapacity
  // or the dispatch-pointer layout that changes this size must be a
  // conscious decision, not drift.
  EXPECT_EQ(kInlineFunctionDefaultCapacity, 88u);
  EXPECT_EQ(sizeof(InlineFunction<void()>),
            kInlineFunctionDefaultCapacity + 3 * sizeof(void (*)()));
  EXPECT_EQ(sizeof(InlineFunction<void()>), 112u);
  EXPECT_EQ(alignof(InlineFunction<void()>), alignof(std::max_align_t));
  // The queue's Action is the default-capacity type (not a wider
  // specialization).
  EXPECT_EQ(sizeof(sim::EventQueue::Action), sizeof(InlineFunction<void()>));
}

TEST(InlineFunctionSize, DeliverySizedCaptureFitsAndOversizedBoxWorks) {
  // The hot delivery closure (~64 bytes of capture) must fit the SBO;
  // an oversized capture must still work through the heap box, and both
  // must survive the relocate path (EventQueue moves an action into its
  // slab slot and out again to run it). Behavior check — allocation
  // counting would be brittle here.
  struct Delivery {
    unsigned char payload[64];
  };
  static_assert(sizeof(Delivery) <= kInlineFunctionDefaultCapacity);
  Delivery d{};
  d.payload[0] = 42;
  InlineFunction<int()> inline_fn = [d] { return int{d.payload[0]}; };
  InlineFunction<int()> moved = std::move(inline_fn);
  EXPECT_FALSE(static_cast<bool>(inline_fn));
  EXPECT_EQ(moved(), 42);

  struct Oversized {
    unsigned char payload[256];
  };
  static_assert(sizeof(Oversized) > kInlineFunctionDefaultCapacity);
  Oversized big{};
  big.payload[200] = 7;
  InlineFunction<int()> boxed = [big] { return int{big.payload[200]}; };
  InlineFunction<int()> boxed_moved = std::move(boxed);
  EXPECT_EQ(boxed_moved(), 7);
}

// ---------------------------------------------------------------------------
// EventQueue: the drain() status.

TEST(EventQueuePerf, DrainDistinguishesEventLimitFromDrained) {
  sim::EventQueue q;
  // A self-rescheduling event: each run schedules the next, so the queue
  // never drains on its own.
  std::function<void()> reschedule = [&] { q.schedule_after(1, [&] { reschedule(); }); };
  q.schedule_at(0, [&] { reschedule(); });

  const auto limited = q.drain(/*max_events=*/100);
  EXPECT_EQ(limited.executed, 100u);
  EXPECT_EQ(limited.status, sim::EventQueue::DrainStatus::kEventLimit);
  EXPECT_FALSE(q.empty()) << "the runaway schedule still has work pending";

  // Stop the cascade, then the queue must report a genuine drain.
  reschedule = [] {};
  const auto drained = q.drain();
  EXPECT_EQ(drained.status, sim::EventQueue::DrainStatus::kDrained);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Sweep runner.

TEST(Sweep, ResultsLandInIndexOrderAtAnyThreadCount) {
  const auto square = [](std::size_t i) { return i * i; };
  const auto serial = sweep_map<std::size_t>(64, 1, square);
  const auto pooled = sweep_map<std::size_t>(64, 4, square);
  ASSERT_EQ(serial.size(), 64u);
  EXPECT_EQ(serial, pooled);
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i], i * i);
}

TEST(Sweep, WorkerExceptionsPropagateToTheCaller) {
  EXPECT_THROW(
      sweep_run(16, 4,
                [](std::size_t i) {
                  if (i == 7) throw std::runtime_error("cell 7 failed");
                }),
      std::runtime_error);
}

TEST(Sweep, ZeroJobsIsANoOp) {
  sweep_run(0, 4, [](std::size_t) { FAIL() << "no job should run"; });
}

// ---------------------------------------------------------------------------
// E1 through the sweep pool: byte-identical traces.

std::string run_e1_trace(ProtocolKind kind) {
  ClusterOptions options;
  options.kind = kind;
  options.n = 5;
  options.sim.seed = 2026;
  options.trace_messages = true;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2),
                 kind == ProtocolKind::kNaiveDynamic ? "dv.info" : "dv.attempt",
                 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  return trace_json_string(cluster.trace_meta(), cluster.sim().trace());
}

TEST(SweepDeterminism, E1TraceJsonIsByteIdenticalThroughTheParallelSweep) {
  const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kNaiveDynamic, ProtocolKind::kBasic,
      ProtocolKind::kOptimized, ProtocolKind::kBasic,
      ProtocolKind::kOptimized, ProtocolKind::kNaiveDynamic,
  };
  const auto job = [&](std::size_t i) { return run_e1_trace(kinds[i]); };
  const auto serial = sweep_map<std::string>(kinds.size(), 1, job);
  const auto pooled = sweep_map<std::string>(kinds.size(), 4, job);
  const auto pooled_again = sweep_map<std::string>(kinds.size(), 4, job);
  EXPECT_EQ(serial, pooled);
  EXPECT_EQ(pooled, pooled_again);
  // Same protocol, same seed => same trace, even from different workers.
  EXPECT_EQ(serial[1], serial[3]);
  EXPECT_EQ(serial[2], serial[4]);
  EXPECT_FALSE(serial[0].empty());
}

// ---------------------------------------------------------------------------
// trace_json_string: the no-tree export path.

TEST(TraceExport, DirectStringMatchesTreeDumpByteForByte) {
  for (const ProtocolKind kind :
       {ProtocolKind::kBasic, ProtocolKind::kOptimized,
        ProtocolKind::kCentralized, ProtocolKind::kThreePhaseRecovery}) {
    ClusterOptions options;
    options.kind = kind;
    options.n = 6;
    options.sim.seed = 31;
    options.trace_messages = true;
    Cluster cluster(options);
    cluster.partition({ProcessSet::of({0, 1, 2, 3}), ProcessSet::of({4, 5})});
    cluster.settle();
    cluster.partition({ProcessSet::of({0, 5}), ProcessSet::of({1, 2, 3, 4})});
    cluster.settle();
    const std::string direct =
        trace_json_string(cluster.trace_meta(), cluster.sim().trace());
    const std::string via_tree =
        trace_to_json(cluster.trace_meta(), cluster.sim().trace()).dump();
    EXPECT_EQ(direct, via_tree);
    // And the loader accepts it: export -> load -> export round-trips.
    const TraceMetaAndEvents loaded = load_trace_json(direct);
    EXPECT_EQ(loaded.events.size(),
              cluster.sim().trace().events().size());
  }
}

}  // namespace
}  // namespace dynvote
