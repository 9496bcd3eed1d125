// The paper's worked executions, replayed exactly (experiments E1-E3).
//
//  * section 1 / 4.5: the "typical problematic scenario" — naive dynamic
//    voting creates two live quorums; the paper's protocol leaves one;
//  * section 4.6: the trivial "record only the last attempt" approach
//    forms S3 and S3' concurrently; the full protocol refuses S3';
//  * section 4.7: exponentially many ambiguous sessions without garbage
//    collection; constant with it (on that execution).
//
// Processes: a..e = p0..p4 throughout.
#include <gtest/gtest.h>

#include "dv/basic_protocol.hpp"
#include "gc_events.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"

namespace dynvote {
namespace {

ClusterOptions options_for(ProtocolKind kind, std::uint32_t n = 5,
                           std::uint64_t seed = 3) {
  ClusterOptions options;
  options.kind = kind;
  options.n = n;
  options.sim.seed = seed;
  return options;
}

const BasicDvProtocol& dv(Cluster& cluster, std::uint32_t p) {
  return dynamic_cast<const BasicDvProtocol&>(cluster.protocol(ProcessId(p)));
}

// ---- Section 1 / 4.5: the typical problematic scenario ---------------------

// Runs the scenario steps common to both protocols:
//   1. partition {a,b,c} | {d,e}; c misses the final message of the
//      {a,b,c} session (a and b complete it);
//   2. a,b continue alone as {a,b}; concurrently c joins d,e.
void run_typical_scenario(Cluster& cluster, const std::string& last_msg_type) {
  FaultInjector faults(cluster.sim().network());
  // c (= p2) never receives the session's closing messages from a, b.
  const int rule = faults.drop_to(ProcessId(2), last_msg_type, 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_EQ(faults.dropped(rule), 2u);
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
}

TEST(TypicalScenario, PaperProtocolLeavesExactlyOneLiveQuorum) {
  Cluster cluster(options_for(ProtocolKind::kBasic));
  run_typical_scenario(cluster, "dv.attempt");

  // a and b formed {a,b}; c,d,e refused because c recorded the ambiguous
  // {a,b,c} attempt and {c,d,e} is no Sub_Quorum of it.
  EXPECT_TRUE(cluster.protocol(ProcessId(0)).is_primary());
  EXPECT_TRUE(cluster.protocol(ProcessId(1)).is_primary());
  for (std::uint32_t p : {2u, 3u, 4u}) {
    EXPECT_FALSE(cluster.protocol(ProcessId(p)).is_primary()) << "p" << p;
  }
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({0, 1}));

  const auto violations = cluster.checker().check_all();
  EXPECT_TRUE(violations.empty()) << to_string(violations);
}

TEST(TypicalScenario, DetachedMemberHoldsTheAmbiguousSession) {
  Cluster cluster(options_for(ProtocolKind::kBasic));
  run_typical_scenario(cluster, "dv.attempt");
  // c's record of the (possibly formed) {a,b,c} session is exactly what
  // blocks {c,d,e} — the paper's key mechanism.
  bool c_holds_abc = false;
  for (const auto& amb : dv(cluster, 2).state().ambiguous) {
    if (amb.session.members == ProcessSet::of({0, 1, 2})) c_holds_abc = true;
  }
  EXPECT_TRUE(c_holds_abc);
  EXPECT_GT(cluster.observer().rejected(), 0u);
}

TEST(TypicalScenario, NaiveProtocolSplitsIntoTwoLiveQuorums) {
  Cluster cluster(options_for(ProtocolKind::kNaiveDynamic));
  // For the naive one-round protocol the "last message" is the info
  // exchange itself.
  run_typical_scenario(cluster, "dv.info");

  // Both sides are live: split brain.
  EXPECT_TRUE(cluster.protocol(ProcessId(0)).is_primary());
  EXPECT_TRUE(cluster.protocol(ProcessId(1)).is_primary());
  EXPECT_TRUE(cluster.protocol(ProcessId(2)).is_primary());
  EXPECT_TRUE(cluster.protocol(ProcessId(3)).is_primary());
  EXPECT_TRUE(cluster.protocol(ProcessId(4)).is_primary());
  EXPECT_EQ(cluster.live_primary(), std::nullopt);  // two distinct sessions

  const auto violations = cluster.checker().check_all();
  bool split_brain = false;
  for (const auto& v : violations) split_brain |= (v.kind == "split-brain");
  EXPECT_TRUE(split_brain) << "expected a split-brain violation, got:\n"
                           << to_string(violations);
}

TEST(TypicalScenario, OptimizedProtocolAlsoSafe) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  run_typical_scenario(cluster, "dv.attempt");
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({0, 1}));
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

// ---- Section 4.6: the trivial approach ------------------------------------

// Replays the paper's S1/S2/S3/S3' table from the initial configuration
// (everyone starts with Last_Primary = (W0, 0)).
void run_trivial_scenario(Cluster& cluster) {
  FaultInjector faults(cluster.sim().network());

  // S1 = ({a,b,c}, 1): a forms; b and c attempt but detach before
  // forming (they miss the others' attempt messages).
  faults.drop_to(ProcessId(1), "dv.attempt", 2);
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();

  // S2 = ({b,c,d}, 2): c and d attempt; b detaches before performing the
  // attempt step (misses the info messages).
  faults.drop_to(ProcessId(1), "dv.info", 2);
  cluster.partition({ProcessSet::of({1, 2, 3}), ProcessSet::of({0}),
                     ProcessSet::of({4})});
  cluster.settle();
  faults.clear();

  // S3 = ({a,b}, 2) and S3' = ({c,d,e}, 3), concurrently.
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
}

TEST(TrivialScenario, S1StateMatchesPaperTable) {
  Cluster cluster(options_for(ProtocolKind::kLastAttemptOnly));
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(1), "dv.attempt", 2);
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();

  const Session s1{ProcessSet::of({0, 1, 2}), 1};
  EXPECT_EQ(dv(cluster, 0).state().last_primary, s1);  // a formed S1
  ASSERT_EQ(dv(cluster, 1).state().ambiguous.size(), 1u);
  EXPECT_EQ(dv(cluster, 1).state().ambiguous[0].session, s1);
  ASSERT_EQ(dv(cluster, 2).state().ambiguous.size(), 1u);
  EXPECT_EQ(dv(cluster, 2).state().ambiguous[0].session, s1);
}

TEST(TrivialScenario, LastAttemptOnlyFormsTwoConcurrentPrimaries) {
  Cluster cluster(options_for(ProtocolKind::kLastAttemptOnly));
  run_trivial_scenario(cluster);

  // S3 = ({a,b}, 2) — legal successor of S1.
  const auto s3 = dv(cluster, 0).state().last_primary;
  ASSERT_TRUE(s3.has_value());
  EXPECT_EQ(s3->members, ProcessSet::of({0, 1}));
  EXPECT_EQ(s3->number, 2);
  EXPECT_TRUE(cluster.protocol(ProcessId(0)).is_primary());

  // S3' = ({c,d,e}, 3) — formed because c forgot S1 (kept only S2).
  const auto s3p = dv(cluster, 2).state().last_primary;
  ASSERT_TRUE(s3p.has_value());
  EXPECT_EQ(s3p->members, ProcessSet::of({2, 3, 4}));
  EXPECT_EQ(s3p->number, 3);
  EXPECT_TRUE(cluster.protocol(ProcessId(2)).is_primary());

  // Two concurrent live disjoint primaries: the checker must object.
  const auto violations = cluster.checker().check_all();
  bool split_brain = false;
  for (const auto& v : violations) split_brain |= (v.kind == "split-brain");
  EXPECT_TRUE(split_brain) << to_string(violations);
}

TEST(TrivialScenario, FullProtocolRefusesS3Prime) {
  Cluster cluster(options_for(ProtocolKind::kBasic));
  run_trivial_scenario(cluster);

  // S3 forms as before...
  EXPECT_TRUE(cluster.protocol(ProcessId(0)).is_primary());
  EXPECT_TRUE(cluster.protocol(ProcessId(1)).is_primary());
  // ...but c still remembers S1 = {a,b,c}, and {c,d,e} is no Sub_Quorum
  // of it: S3' is refused.
  EXPECT_FALSE(cluster.protocol(ProcessId(2)).is_primary());
  EXPECT_FALSE(cluster.protocol(ProcessId(3)).is_primary());
  EXPECT_FALSE(cluster.protocol(ProcessId(4)).is_primary());

  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({0, 1}));
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(TrivialScenario, OptimizedProtocolAlsoRefusesS3Prime) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  run_trivial_scenario(cluster);
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({0, 1}));
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

// ---- Section 4.7: the exponential example ----------------------------------

// Drives the paper's execution: G = the first ceil((n+1)/2) processes;
// for every subset G_i of the rest, a session with membership G ∪ G_i in
// which only p0 completes the attempt step (everyone else misses the
// info messages and "detaches"). p0's Ambiguous_Sessions then holds one
// entry per distinct membership.
std::size_t run_exponential_example(Cluster& cluster, std::uint32_t n) {
  const std::uint32_t g_size = (n + 2) / 2;  // ceil((n+1)/2)
  ProcessSet g;
  for (std::uint32_t i = 0; i < g_size; ++i) g.insert(ProcessId(i));
  const std::uint32_t tail = n - g_size;

  FaultInjector faults(cluster.sim().network());
  for (std::uint32_t bits = 0; bits < (1u << tail); ++bits) {
    ProcessSet members = g;
    for (std::uint32_t b = 0; b < tail; ++b) {
      if (bits & (1u << b)) members.insert(ProcessId(g_size + b));
    }
    // Everyone but p0 misses the step-1 exchange, so only p0 attempts.
    faults.clear();
    for (ProcessId p : members) {
      if (p != ProcessId(0)) faults.drop_to(p, "dv.info");
    }
    std::vector<ProcessSet> groups{members};
    for (std::uint32_t q = 0; q < n; ++q) {
      if (!members.contains(ProcessId(q))) {
        groups.push_back(ProcessSet{ProcessId(q)});
      }
    }
    cluster.partition(groups);
    cluster.settle();
  }
  faults.clear();
  return cluster.checker().max_ambiguous(ProcessId(0));
}

TEST(ExponentialExample, BasicProtocolRecordsExponentiallyMany) {
  // With |G| = ceil((n+1)/2), the execution visits 2^(n - |G|) distinct
  // memberships; for odd n that is the paper's 2^⌊n/2⌋.
  for (std::uint32_t n : {4u, 5u, 6u, 7u, 8u}) {
    Cluster cluster(options_for(ProtocolKind::kBasic, n));
    const std::size_t recorded = run_exponential_example(cluster, n);
    const std::size_t expected = 1u << (n - (n + 2) / 2);
    EXPECT_EQ(recorded, expected) << "n=" << n;
    if (n % 2 == 1) {
      EXPECT_EQ(recorded, 1u << (n / 2)) << "paper formula, n=" << n;
    }
  }
}

TEST(ExponentialExample, OptimizedProtocolStaysSmallOnSameExecution) {
  // The members of G return in every session carrying no record of the
  // previous attempts, so the optimized protocol resolves each previous
  // attempt as formed-by-nobody and deletes it.
  for (std::uint32_t n : {4u, 5u, 6u, 7u, 8u}) {
    Cluster cluster(options_for(ProtocolKind::kOptimized, n));
    const std::size_t recorded = run_exponential_example(cluster, n);
    EXPECT_LE(recorded, 2u) << "n=" << n;
  }
}

TEST(ExponentialExample, GarbageCollectionActuallyDeletes) {
  Cluster cluster(options_for(ProtocolKind::kOptimized, 6));
  run_exponential_example(cluster, 6);
  EXPECT_GT(gc_deletions(cluster, 0), 0u);
}

}  // namespace
}  // namespace dynvote
