// Unit tests: the consistency checker itself, driven with synthetic
// event streams (the checker must be trustworthy before its verdicts on
// protocols mean anything).
#include <gtest/gtest.h>

#include "harness/checker.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "harness/trace_replay.hpp"

namespace dynvote {
namespace {

const ProcessSet kCore = ProcessSet::range(5);

Session session(std::initializer_list<std::uint32_t> members,
                SessionNumber number) {
  return Session{ProcessSet::of(members), number};
}

TEST(Checker, CleanExecutionHasNoViolations) {
  ConsistencyChecker checker(kCore);
  const Session s1 = session({0, 1, 2}, 1);
  for (std::uint32_t p : {0u, 1u, 2u}) {
    checker.on_attempt(100, ProcessId(p), s1);
    checker.on_formed(200, ProcessId(p), s1);
  }
  EXPECT_TRUE(checker.check_all().empty());
  EXPECT_EQ(checker.formed_session_count(), 2u);  // F0 + s1
}

TEST(Checker, DetectsDuplicateSessionNumbers) {
  ConsistencyChecker checker(kCore);
  checker.on_attempt(1, ProcessId(0), session({0, 1, 2}, 1));
  checker.on_formed(2, ProcessId(0), session({0, 1, 2}, 1));
  checker.on_attempt(1, ProcessId(3), session({2, 3, 4}, 1));
  checker.on_formed(2, ProcessId(3), session({2, 3, 4}, 1));
  const auto violations = checker.check_basic();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, "dup-number");
}

TEST(Checker, DetectsConcurrentDisjointPrimaries) {
  ConsistencyChecker checker(kCore);
  checker.on_formed(100, ProcessId(0), session({0, 1}, 2));
  checker.on_formed(150, ProcessId(3), session({2, 3, 4}, 3));
  const auto violations = checker.check_basic();
  bool found = false;
  for (const auto& v : violations) found |= (v.kind == "split-brain");
  EXPECT_TRUE(found);
}

TEST(Checker, NoSplitBrainWhenIntervalsDoNotOverlap) {
  ConsistencyChecker checker(kCore);
  checker.on_formed(100, ProcessId(0), session({0, 1}, 2));
  checker.on_primary_lost(150, ProcessId(0));
  checker.on_formed(200, ProcessId(3), session({2, 3, 4}, 3));
  for (const auto& v : checker.check_basic()) {
    EXPECT_NE(v.kind, "split-brain") << v.detail;
  }
}

TEST(Checker, NoSplitBrainWhenSessionsIntersect) {
  // Transitional overlap between intersecting primaries is normal.
  ConsistencyChecker checker(kCore);
  checker.on_formed(100, ProcessId(0), session({0, 1, 2}, 2));
  checker.on_formed(150, ProcessId(2), session({2, 3, 4}, 3));
  for (const auto& v : checker.check_basic()) {
    EXPECT_NE(v.kind, "split-brain") << v.detail;
  }
}

TEST(Checker, OrderTotalityOverParticipationChains) {
  ConsistencyChecker checker(kCore);
  // F0 -> s1 (via p0,p1,p2) -> s2 (via p2).
  const Session s1 = session({0, 1, 2}, 1);
  const Session s2 = session({2, 3, 4}, 2);
  for (std::uint32_t p : {0u, 1u, 2u}) {
    checker.on_attempt(1, ProcessId(p), s1);
    checker.on_formed(2, ProcessId(p), s1);
  }
  checker.on_primary_lost(3, ProcessId(2));
  for (std::uint32_t p : {2u, 3u, 4u}) {
    checker.on_attempt(4, ProcessId(p), s2);
    checker.on_formed(5, ProcessId(p), s2);
  }
  EXPECT_TRUE(checker.check_order().empty());
}

TEST(Checker, DetectsIncomparableFormedSessions) {
  ConsistencyChecker checker(kCore);
  // Two formed sessions with no common participant beyond F0... both
  // connect to F0 but not to each other: ≺ is not total.
  const Session s1 = session({0, 1}, 1);
  const Session s2 = session({3, 4}, 2);
  checker.on_attempt(1, ProcessId(0), s1);
  checker.on_formed(2, ProcessId(0), s1);
  checker.on_attempt(3, ProcessId(3), s2);
  checker.on_formed(4, ProcessId(3), s2);
  const auto violations = checker.check_order();
  bool partial = false;
  for (const auto& v : violations) partial |= (v.kind == "order-partial");
  EXPECT_TRUE(partial);
}

TEST(Checker, AttemptedButNeverFormedSessionsDoNotEnterTheOrder) {
  ConsistencyChecker checker(kCore);
  const Session ghost = session({0, 1, 2}, 1);
  checker.on_attempt(1, ProcessId(0), ghost);  // nobody forms it
  const Session s2 = session({0, 1, 2, 3}, 2);
  checker.on_attempt(3, ProcessId(0), s2);
  checker.on_formed(4, ProcessId(0), s2);
  EXPECT_TRUE(checker.check_order().empty());
  EXPECT_EQ(checker.formed_session_count(), 2u);  // F0 + s2
}

TEST(Checker, SessionLiveAtRespectsIntervalBounds) {
  ConsistencyChecker checker(kCore);
  const Session s = session({0, 1, 2}, 1);
  checker.on_formed(100, ProcessId(0), s);
  checker.on_primary_lost(200, ProcessId(0));
  EXPECT_FALSE(checker.session_live_at(s, 99));
  EXPECT_TRUE(checker.session_live_at(s, 100));
  EXPECT_TRUE(checker.session_live_at(s, 199));
  EXPECT_FALSE(checker.session_live_at(s, 200));
}

TEST(Checker, LivePrimariesListsOpenIntervals) {
  ConsistencyChecker checker(kCore);
  const Session s = session({0, 1, 2}, 1);
  checker.on_formed(1, ProcessId(0), s);
  checker.on_formed(1, ProcessId(1), s);
  checker.on_primary_lost(5, ProcessId(1));
  const auto live = checker.live_primaries();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].first, ProcessId(0));
  EXPECT_EQ(live[0].second, s);
}

obs::TraceEvent ambiguity_record(SimTime time, std::uint32_t p,
                                 std::uint64_t level) {
  obs::TraceEvent event;
  event.time = time;
  event.kind = obs::TraceEventKind::kAmbiguityRecord;
  event.a = ProcessId(p);
  event.value = level;
  return event;
}

TEST(Checker, KeepsEachProcessAmbiguityHighWater) {
  ConsistencyChecker checker(kCore);
  EXPECT_EQ(checker.max_ambiguous(), 0u);
  checker.note(ambiguity_record(1, 0, 1));
  checker.note(ambiguity_record(2, 2, 2));
  checker.note(ambiguity_record(3, 0, 3));
  checker.note(ambiguity_record(4, 0, 0));  // a drop keeps the high-water
  checker.note(ambiguity_record(5, 2, 1));
  EXPECT_EQ(checker.max_ambiguous(ProcessId(0)), 3u);
  EXPECT_EQ(checker.max_ambiguous(ProcessId(1)), 0u);  // never recorded
  EXPECT_EQ(checker.max_ambiguous(ProcessId(2)), 2u);
  EXPECT_EQ(checker.max_ambiguous(ProcessId(9)), 0u);  // never seen
  EXPECT_EQ(checker.max_ambiguous(), 3u);
}

TEST(Checker, AmbiguityHighWaterLiveAndReplayed) {
  // Basic protocol: p2 misses the closing round of S1 (all five) and of
  // S2 ({0,1,2}), so it holds both attempts ambiguous; the final merge
  // forms and clears them. Every other process held at most one record.
  ClusterOptions options;
  options.kind = ProtocolKind::kBasic;
  options.n = 5;
  options.sim.seed = 3;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 4);
  cluster.start();
  faults.clear();
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.merge();
  cluster.settle();
  ASSERT_TRUE(cluster.protocol(ProcessId(2)).is_primary());

  const ConsistencyChecker& live = cluster.checker();
  EXPECT_EQ(live.max_ambiguous(ProcessId(2)), 2u);
  for (std::uint32_t p : {0u, 1u, 3u, 4u}) {
    EXPECT_EQ(live.max_ambiguous(ProcessId(p)), 1u) << "p" << p;
  }
  EXPECT_EQ(live.max_ambiguous(), 2u);

  const TraceCheckResult replayed = check_trace(load_trace_json(
      trace_to_json(cluster.trace_meta(), cluster.trace()).dump()));
  EXPECT_EQ(replayed.max_ambiguous, 2u);
  EXPECT_TRUE(replayed.consistent());
}

TEST(Checker, WithoutSeedingThereIsNoF0) {
  ConsistencyChecker checker(kCore, /*seed_initial=*/false);
  EXPECT_EQ(checker.formed_session_count(), 0u);
}

}  // namespace
}  // namespace dynvote
