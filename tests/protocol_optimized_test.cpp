// Integration tests: the optimized protocol's learning and resolution
// rules (paper section 5, figures 2-3).
#include <gtest/gtest.h>

#include "dv/messages.hpp"
#include "dv/optimized_protocol.hpp"
#include "gc_events.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "sim/network.hpp"

namespace dynvote {
namespace {

ClusterOptions optimized_options(std::uint64_t seed = 11) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = seed;
  return options;
}

const OptimizedDvProtocol& opt(Cluster& cluster, std::uint32_t p) {
  return dynamic_cast<const OptimizedDvProtocol&>(
      cluster.protocol(ProcessId(p)));
}

TEST(OptimizedProtocol, BehavesLikeBasicOnHappyPath) {
  Cluster cluster(optimized_options());
  cluster.start();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::range(5));
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_EQ(cluster.live_primary()->members, ProcessSet::of({0, 1, 2}));
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(OptimizedProtocol, LastFormedGossipPropagatesOnForm) {
  Cluster cluster(optimized_options());
  cluster.start();
  const auto& state = opt(cluster, 0).state();
  const Session formed = *state.last_primary;
  for (std::uint32_t q = 0; q < 5; ++q) {
    ASSERT_NE(state.last_formed.find(ProcessId(q)), nullptr);
    EXPECT_EQ(*state.last_formed.find(ProcessId(q)), formed);
  }
}

// Calls `check(info, sender_view, sender)` for every dv.info the cluster
// sends, at send time; drops nothing.
template <typename Check>
void observe_infos(Cluster& cluster, Check check) {
  cluster.sim().network().set_drop_filter([&cluster, check](
                                              const sim::Envelope& env) {
    const auto* info = dynamic_cast<const InfoPayload*>(env.payload.get());
    if (info != nullptr) {
      check(*info, cluster.protocol(env.from).current_view()->members,
            opt(cluster, env.from.value()));
    }
    return false;
  });
}

TEST(OptimizedProtocol, InfoCarriesExactlyTheLastFormedEntriesTheViewReads) {
  ClusterOptions options = optimized_options();
  options.n = 16;
  Cluster cluster(options);
  std::size_t infos = 0;
  std::size_t restricted = 0;
  observe_infos(cluster, [&](const InfoPayload& info, const ProcessSet& view,
                             const OptimizedDvProtocol& sender) {
    ++infos;
    const LastFormed& full = sender.state().last_formed;
    if (info.last_formed.size() < full.size()) ++restricted;
    for (const LastFormed::Entry& e : info.last_formed) {
      EXPECT_TRUE(view.contains(e.id))
          << to_string(e.id) << " outside the view";
    }
    // Every entry a receiver reads, Last_Formed_sender(r), survived.
    for (ProcessId r : view) {
      const Session* want = full.find(r);
      const Session* got = info.last_formed.find(r);
      ASSERT_EQ(got != nullptr, want != nullptr);
      if (got != nullptr) {
        EXPECT_EQ(*got, *want);
      }
    }
  });
  cluster.start();
  cluster.partition({ProcessSet::range(9),
                     ProcessSet::of({9, 10, 11, 12, 13, 14, 15})});
  cluster.settle();
  EXPECT_EQ(cluster.live_primary()->members, ProcessSet::range(9));
  cluster.merge();
  cluster.settle();
  EXPECT_EQ(cluster.live_primary()->members, ProcessSet::range(16));
  EXPECT_GT(infos, 0u);
  EXPECT_GT(restricted, 0u);  // the 9/7 views dropped entries
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(OptimizedProtocol, InfoSizeIsBoundedByTheViewNotByN) {
  // n = 64: every process holds 64 Last_Formed entries after start, all
  // naming the 64-member start session. An info sent in a 9-member view
  // carries at most 9 of the entries, and the session itself once.
  ClusterOptions options = optimized_options();
  options.n = 64;
  Cluster cluster(options);
  const ProcessSet nine = ProcessSet::range(9);
  std::size_t checked = 0;
  observe_infos(cluster, [&](const InfoPayload& info, const ProcessSet& view,
                             const OptimizedDvProtocol&) {
    if (view != nine) return;
    ++checked;
    EXPECT_LE(info.last_formed.size(), nine.size());
    // The start session is in the info twice: as Last_Primary and once
    // in the Last_Formed table, not once per entry.
    ASSERT_TRUE(info.last_primary.has_value());
    ASSERT_EQ(info.last_primary->members.size(), 64u);
    Encoder start_session;
    info.last_primary->encode(start_session);
    EXPECT_LT(info.encoded_size(), 3 * start_session.size());
  });
  cluster.start();
  ProcessSet rest;
  for (std::uint32_t i = 9; i < 64; ++i) rest.insert(ProcessId(i));
  cluster.partition({nine, rest});
  cluster.settle();
  EXPECT_EQ(checked, 9u * 9u);  // 9 senders, one envelope per member
}

TEST(OptimizedProtocol, AdoptionWhenFormedSessionWasMissed) {
  // p2 misses the attempt round: p0, p1, p3, p4 form S but p2 holds it
  // ambiguous. On the next session, p2 learns from Last_Formed that S
  // was formed and adopts it (resolution rule 1).
  Cluster cluster(optimized_options());
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 4);
  cluster.start();
  EXPECT_FALSE(cluster.protocol(ProcessId(2)).is_primary());
  ASSERT_EQ(opt(cluster, 2).state().ambiguous.size(), 1u);
  faults.clear();

  // Any new view triggers a new session where learning happens. The new
  // session then forms, so what proves the adoption ran is the counter.
  cluster.oracle().inject_view(ProcessSet::range(5));
  cluster.settle();
  EXPECT_GE(gc_adoptions(cluster, 2), 1u);
  EXPECT_TRUE(cluster.protocol(ProcessId(2)).is_primary());
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(OptimizedProtocol, AdoptionWithoutReformingKeepsStateCorrect) {
  // Same miss, but the re-encounter happens in a view that CANNOT form a
  // quorum (Min_Quorum floor): p2 adopts the formed session yet nobody
  // becomes primary, and p2's Last_Primary is now the formed session.
  ClusterOptions options = optimized_options();
  options.config.min_quorum = 3;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 4);
  cluster.start();
  const Session formed = *opt(cluster, 0).state().last_primary;
  faults.clear();

  // {0, 2} alone: two processes < Min_Quorum 3, so the session aborts —
  // but the learning in step 2 still runs.
  cluster.partition({ProcessSet::of({0, 2}), ProcessSet::of({1, 3, 4})});
  cluster.settle();
  EXPECT_EQ(opt(cluster, 2).state().last_primary, formed);
  EXPECT_TRUE(opt(cluster, 2).state().ambiguous.empty());
  EXPECT_GE(gc_adoptions(cluster, 2), 1u);
}

TEST(OptimizedProtocol, DeletesAttemptNobodyFormed) {
  // Core {0,1,2}. In view {0,1} both members attempt S but neither forms
  // (attempt messages dropped). Re-running the view, each learns from
  // the other's Last_Formed (still F0) that S was formed by NO member —
  // resolution rule 1 deletes the record before the new attempt.
  ClusterOptions options = optimized_options();
  options.n = 3;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(0), "dv.attempt", 1);
  faults.drop_to(ProcessId(1), "dv.attempt", 1);
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2})});
  cluster.settle();
  EXPECT_FALSE(cluster.live_primary().has_value());
  EXPECT_EQ(opt(cluster, 0).state().ambiguous.size(), 1u);
  EXPECT_EQ(opt(cluster, 1).state().ambiguous.size(), 1u);
  faults.clear();

  cluster.oracle().inject_view(ProcessSet::of({0, 1}));
  cluster.settle();
  EXPECT_GE(gc_deletions(cluster, 0), 1u);
  EXPECT_GE(gc_deletions(cluster, 1), 1u);
  // The rerun session then forms normally.
  EXPECT_TRUE(cluster.protocol(ProcessId(0)).is_primary());
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(OptimizedProtocol, SecondRuleDeletesViaNonAmbiguousPeer) {
  // p0 records an attempt S; later it meets a member q of S whose
  // Last_Primary predates S and which does not hold S ambiguous (q never
  // reached the attempt step). p0 concludes S was formed by nobody.
  ClusterOptions options = optimized_options();
  options.config.min_quorum = 3;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  // In view {0,1,2}: p0 attempts; p1 and p2 never see the infos.
  faults.drop_to(ProcessId(1), "dv.info");
  faults.drop_to(ProcessId(2), "dv.info");
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  ASSERT_EQ(opt(cluster, 0).state().ambiguous.size(), 1u);
  faults.clear();

  // p0 re-meets p1 in a quorum-less view {0,1}: p1 has Last_Primary =
  // (W0,0) < S.N and no record of S => delete by the second rule.
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2}),
                     ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_TRUE(opt(cluster, 0).state().ambiguous.empty());
  EXPECT_GE(gc_deletions(cluster, 0), 1u);
}

TEST(OptimizedProtocol, GcUnblocksWhereBasicStaysBlocked) {
  // The availability payoff of GC: after a failed attempt whose session
  // would forbid a successor, resolving it as formed-by-nobody lets the
  // optimized protocol proceed where the basic one cannot.
  for (ProtocolKind kind : {ProtocolKind::kBasic, ProtocolKind::kOptimized}) {
    ClusterOptions options = optimized_options();
    options.kind = kind;
    Cluster cluster(options);
    FaultInjector faults(cluster.sim().network());
    // Fresh start: view {0,1,2,3,4} attempt S=({0..4},1); only p3, p4
    // reach the attempt step (p0,p1,p2 miss the infos).
    faults.drop_to(ProcessId(0), "dv.info");
    faults.drop_to(ProcessId(1), "dv.info");
    faults.drop_to(ProcessId(2), "dv.info");
    cluster.merge();
    cluster.settle();
    EXPECT_FALSE(cluster.live_primary().has_value());
    faults.clear();

    // Now {0,1,2} + p3: p3 holds ambiguous S over all five. {0,1,2,3} IS
    // a sub-quorum of S (4 of 5), so both variants form here. The
    // interesting split is next: {0,1} vs S.
    cluster.partition({ProcessSet::of({0, 1, 3}), ProcessSet::of({2, 4})});
    cluster.settle();
    // {0,1,3} is 3/5 of S = majority, forms under both. Shrink to {0,1}:
    // a majority of {0,1,3}, fine for both. The basic/optimized gap needs
    // the ambiguous session to be resolvable as never-formed; p3 learned
    // exactly that from p0,p1 (their Last_Primary predates S, S not
    // ambiguous at them).
    if (kind == ProtocolKind::kOptimized) {
      EXPECT_TRUE(opt(cluster, 3).state().ambiguous.empty());
    }
    EXPECT_TRUE(cluster.protocol(ProcessId(3)).is_primary());
    EXPECT_TRUE(cluster.checker().check_all().empty());
  }
}

TEST(OptimizedProtocol, DiskLossPeerIsNotTrustedForLearning) {
  // p2 misses an attempt round (holds S ambiguous); p0 loses its disk.
  // p0's empty Last_Formed must NOT convince p2 that p0 never formed S.
  Cluster cluster(optimized_options());
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 4);
  cluster.start();
  ASSERT_EQ(opt(cluster, 2).state().ambiguous.size(), 1u);
  faults.clear();

  cluster.sim().crash_and_destroy_disk(ProcessId(0));
  cluster.settle();
  cluster.recover(ProcessId(0));
  cluster.settle();
  cluster.merge();
  cluster.settle();
  // The group re-forms (survivors have history); consistency holds; and
  // no knowledge was fabricated from the history-less peer (adoption via
  // p1/p3/p4's Last_Formed is fine and expected).
  EXPECT_TRUE(cluster.live_primary().has_value());
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(OptimizedProtocol, CrashRecoverPreservesOptimizedState) {
  Cluster cluster(optimized_options());
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 4);
  cluster.start();
  const auto before = opt(cluster, 2).state();
  ASSERT_FALSE(before.ambiguous.empty());
  cluster.crash(ProcessId(2));
  cluster.settle();
  cluster.recover(ProcessId(2));
  cluster.settle();
  EXPECT_EQ(opt(cluster, 2).state().ambiguous, before.ambiguous);
  EXPECT_EQ(opt(cluster, 2).state().last_formed, before.last_formed);
}

TEST(OptimizedProtocol, TwoRoundsJustLikeBasic) {
  Cluster cluster(optimized_options());
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_EQ(cluster.observer().rounds().max(), 2u);
}

TEST(OptimizedProtocol, RepeatedFailuresDuringFormationStayConsistent) {
  Cluster cluster(optimized_options(23));
  FaultInjector faults(cluster.sim().network());
  cluster.start();
  // Five rounds of: partition while one majority-side member misses the
  // attempt round, then heal.
  for (std::uint32_t round = 0; round < 5; ++round) {
    const ProcessId victim(round % 3);  // someone inside {0,1,2}
    faults.clear();
    faults.drop_to(victim, "dv.attempt", 2);
    cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
    cluster.settle();
    faults.clear();
    cluster.merge();
    cluster.settle();
  }
  EXPECT_TRUE(cluster.live_primary().has_value());
  const auto violations = cluster.checker().check_all();
  EXPECT_TRUE(violations.empty()) << to_string(violations);
}

}  // namespace
}  // namespace dynvote
