// Integration tests for the six comparison baselines.
#include <gtest/gtest.h>

#include "dv/basic_protocol.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"

namespace dynvote {
namespace {

ClusterOptions options_for(ProtocolKind kind, std::uint32_t n = 5,
                           std::uint64_t seed = 41) {
  ClusterOptions options;
  options.kind = kind;
  options.n = n;
  options.sim.seed = seed;
  return options;
}

// ---- Static majority --------------------------------------------------------

TEST(StaticMajority, MajorityComponentIsPrimary) {
  Cluster cluster(options_for(ProtocolKind::kStaticMajority));
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_TRUE(cluster.protocol(ProcessId(0)).is_primary());
  EXPECT_FALSE(cluster.protocol(ProcessId(3)).is_primary());
  EXPECT_TRUE(cluster.checker().check_basic().empty());
}

TEST(StaticMajority, CannotShrinkBelowMajorityUnlikeDynamic) {
  // The defining availability gap: {0,1} is a legal dynamic successor of
  // {0,1,2} but is never a static majority of the 5-process core.
  Cluster cluster(options_for(ProtocolKind::kStaticMajority));
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2}),
                     ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_FALSE(cluster.live_primary().has_value());

  Cluster dynamic(options_for(ProtocolKind::kBasic));
  dynamic.start();
  dynamic.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  dynamic.settle();
  dynamic.partition({ProcessSet::of({0, 1}), ProcessSet::of({2}),
                     ProcessSet::of({3, 4})});
  dynamic.settle();
  ASSERT_TRUE(dynamic.live_primary().has_value());
  EXPECT_EQ(dynamic.live_primary()->members, ProcessSet::of({0, 1}));
}

TEST(StaticMajority, ZeroCommunicationRounds) {
  Cluster cluster(options_for(ProtocolKind::kStaticMajority));
  cluster.start();
  EXPECT_EQ(cluster.sim().network().stats().messages_sent, 0u);
  EXPECT_EQ(cluster.observer().rounds().max(), 0u);
}

TEST(StaticMajority, RecoversInstantlyWhenMajorityReturns) {
  Cluster cluster(options_for(ProtocolKind::kStaticMajority));
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3}),
                     ProcessSet::of({4})});
  cluster.settle();
  EXPECT_FALSE(cluster.live_primary().has_value());
  cluster.merge();
  cluster.settle();
  EXPECT_TRUE(cluster.live_primary().has_value());
  EXPECT_TRUE(cluster.checker().check_basic().empty());
}

// ---- Blocking dynamic voting ------------------------------------------------

// Shared setup: a failed formation attempt S = ({0..4}, 1) recorded by
// every process (all attempt, nobody forms).
void fail_first_formation(Cluster& cluster, FaultInjector& faults) {
  for (std::uint32_t p = 0; p < 5; ++p) {
    faults.drop_to(ProcessId(p), "dv.attempt", 4);
  }
  cluster.merge();
  cluster.settle();
  faults.clear();
}

TEST(BlockingDynamic, MajorityOfAttemptersIsNotEnough) {
  Cluster cluster(options_for(ProtocolKind::kBlockingDynamic));
  FaultInjector faults(cluster.sim().network());
  fail_first_formation(cluster, faults);
  EXPECT_FALSE(cluster.live_primary().has_value());

  // A majority of the attempters reconnects: ours would proceed; the
  // blocking protocol refuses until ALL five attempters are present.
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_FALSE(cluster.live_primary().has_value());
  EXPECT_GT(cluster.observer().blocked(), 0u);

  // Same failure, our protocol: the majority continues.
  Cluster ours(options_for(ProtocolKind::kBasic));
  FaultInjector ours_faults(ours.sim().network());
  fail_first_formation(ours, ours_faults);
  ours.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  ours.settle();
  ASSERT_TRUE(ours.live_primary().has_value());
  EXPECT_EQ(ours.live_primary()->members, ProcessSet::of({0, 1, 2}));
}

TEST(BlockingDynamic, ProceedsOnceAllAttemptersReturn) {
  Cluster cluster(options_for(ProtocolKind::kBlockingDynamic));
  FaultInjector faults(cluster.sim().network());
  fail_first_formation(cluster, faults);
  // The topology never changed (everyone stayed connected through the
  // message loss), so prod the membership service into a fresh view.
  cluster.oracle().inject_view(ProcessSet::range(5));
  cluster.settle();
  ASSERT_TRUE(cluster.live_primary().has_value());
  EXPECT_EQ(cluster.live_primary()->members, ProcessSet::range(5));
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(BlockingDynamic, OneCrashedAttemperBlocksEveryoneForever) {
  // The paper's criticism: one process that disappears during the
  // protocol stalls all the others, even though four of five are up.
  Cluster cluster(options_for(ProtocolKind::kBlockingDynamic));
  FaultInjector faults(cluster.sim().network());
  fail_first_formation(cluster, faults);
  cluster.crash(ProcessId(4));
  cluster.settle();
  cluster.merge();
  cluster.settle();
  EXPECT_FALSE(cluster.live_primary().has_value());
  EXPECT_GT(cluster.observer().blocked(), 0u);
}

TEST(BlockingDynamic, StaysConsistentUnderTheTypicalScenario) {
  Cluster cluster(options_for(ProtocolKind::kBlockingDynamic));
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

// ---- Hybrid (Jajodia-Mutchler) ----------------------------------------------

TEST(HybridJm, DynamicAboveThreeStaticAtThree) {
  Cluster cluster(options_for(ProtocolKind::kHybridJm));
  cluster.start();
  // 5 -> 3: plain dynamic voting.
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  ASSERT_TRUE(cluster.live_primary().has_value());
  EXPECT_EQ(cluster.live_primary()->members, ProcessSet::of({0, 1, 2}));
  // 3 -> 2: static majority of the 3-member floor still works...
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2}),
                     ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_TRUE(cluster.protocol(ProcessId(0)).is_primary());
  // ...but 2 -> 1 can never happen: the floor stays {0,1,2} and one
  // process is not a majority of it.
  cluster.partition({ProcessSet::of({0}), ProcessSet::of({1}),
                     ProcessSet::of({2}), ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_FALSE(cluster.live_primary().has_value());
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(HybridJm, SingletonNeverFormsButDynamicSingletonDoes) {
  // Ours (Min_Quorum = 1) lets the chain shrink to one process; the
  // hybrid never does — the paper notes neither dominates the other.
  Cluster hybrid(options_for(ProtocolKind::kHybridJm));
  Cluster ours(options_for(ProtocolKind::kBasic));
  for (Cluster* cluster : {&hybrid, &ours}) {
    cluster->start();
    cluster->partition({ProcessSet::of({2, 3, 4}), ProcessSet::of({0, 1})});
    cluster->settle();
    cluster->partition({ProcessSet::of({3, 4}), ProcessSet::of({2}),
                        ProcessSet::of({0, 1})});
    cluster->settle();
    cluster->partition({ProcessSet::of({4}), ProcessSet::of({3}),
                        ProcessSet::of({2}), ProcessSet::of({0, 1})});
    cluster->settle();
  }
  EXPECT_FALSE(hybrid.protocol(ProcessId(4)).is_primary());
  EXPECT_TRUE(ours.protocol(ProcessId(4)).is_primary());
  EXPECT_TRUE(hybrid.checker().check_all().empty());
  EXPECT_TRUE(ours.checker().check_all().empty());
}

TEST(HybridJm, RecordedQuorumNeverShrinksBelowThree) {
  Cluster cluster(options_for(ProtocolKind::kHybridJm));
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  cluster.partition({ProcessSet::of({1, 2}), ProcessSet::of({0}),
                     ProcessSet::of({3, 4})});
  cluster.settle();
  ASSERT_TRUE(cluster.protocol(ProcessId(1)).is_primary());
  const auto& state =
      dynamic_cast<const BasicDvProtocol&>(cluster.protocol(ProcessId(1)))
          .state();
  // Last_Primary records the 3-member floor, not the 2-member component.
  EXPECT_EQ(state.last_primary->members, ProcessSet::of({0, 1, 2}));
}

TEST(HybridJm, HybridWinsWhereOursWithMinQuorum3Blocks) {
  // The reverse direction of "neither dominates": from {0,1,2} the
  // hybrid allows {1,2} (static majority of 3) while ours with
  // Min_Quorum = 3 refuses any 2-member group.
  ClusterOptions ours_options = options_for(ProtocolKind::kBasic);
  ours_options.config.min_quorum = 3;
  Cluster ours(ours_options);
  Cluster hybrid(options_for(ProtocolKind::kHybridJm));
  for (Cluster* cluster : {&ours, &hybrid}) {
    cluster->start();
    cluster->partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
    cluster->settle();
    cluster->partition({ProcessSet::of({1, 2}), ProcessSet::of({0}),
                        ProcessSet::of({3, 4})});
    cluster->settle();
  }
  EXPECT_TRUE(hybrid.protocol(ProcessId(1)).is_primary());
  EXPECT_FALSE(ours.protocol(ProcessId(1)).is_primary());
}

// ---- Three-phase recovery ---------------------------------------------------

TEST(ThreePhaseRecovery, FormsTheSameQuorumsAsOurs) {
  Cluster cluster(options_for(ProtocolKind::kThreePhaseRecovery));
  cluster.start();
  ASSERT_TRUE(cluster.live_primary().has_value());
  EXPECT_EQ(cluster.live_primary()->members, ProcessSet::range(5));
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  ASSERT_TRUE(cluster.live_primary().has_value());
  EXPECT_EQ(cluster.live_primary()->members, ProcessSet::of({0, 1, 2}));
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(ThreePhaseRecovery, PaysFiveRoundsWhereOursPaysTwo) {
  Cluster slow(options_for(ProtocolKind::kThreePhaseRecovery));
  slow.start();
  Cluster fast(options_for(ProtocolKind::kBasic));
  fast.start();
  EXPECT_DOUBLE_EQ(slow.observer().rounds().mean(), 5.0);
  EXPECT_DOUBLE_EQ(fast.observer().rounds().mean(), 2.0);
  EXPECT_GT(slow.sim().network().stats().messages_sent,
            2 * fast.sim().network().stats().messages_sent);
}

TEST(ThreePhaseRecovery, SurvivesTheTypicalScenario) {
  Cluster cluster(options_for(ProtocolKind::kThreePhaseRecovery));
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({0, 1}));
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

// ---- Naive / last-attempt (supplementary to the paper scenarios) -----------

TEST(NaiveDynamic, ConsistentWhenNoFailuresHitTheProtocol) {
  Cluster cluster(options_for(ProtocolKind::kNaiveDynamic));
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  cluster.merge();
  cluster.settle();
  EXPECT_TRUE(cluster.live_primary().has_value());
  EXPECT_TRUE(cluster.checker().check_basic().empty());
}

TEST(NaiveDynamic, SingleRoundOnly) {
  Cluster cluster(options_for(ProtocolKind::kNaiveDynamic));
  cluster.start();
  EXPECT_EQ(cluster.observer().rounds().max(), 1u);
}

TEST(LastAttemptOnly, KeepsExactlyOneAmbiguousSession) {
  Cluster cluster(options_for(ProtocolKind::kLastAttemptOnly));
  FaultInjector faults(cluster.sim().network());
  // Two consecutive failed attempts with different memberships.
  faults.drop_to(ProcessId(0), "dv.attempt");
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  cluster.partition({ProcessSet::of({0, 1, 3}), ProcessSet::of({2}),
                     ProcessSet::of({4})});
  cluster.settle();
  faults.clear();
  const auto& state =
      dynamic_cast<const BasicDvProtocol&>(cluster.protocol(ProcessId(0)))
          .state();
  EXPECT_LE(state.ambiguous.size(), 1u);
}

// ---- Factory / facade -------------------------------------------------------

TEST(ProtocolFactory, BuildsEveryKind) {
  for (ProtocolKind kind : all_protocol_kinds()) {
    Cluster cluster(options_for(kind));
    cluster.start();
    EXPECT_TRUE(cluster.live_primary().has_value()) << to_string(kind);
  }
}

TEST(ProtocolFactory, ConsistencyFlagsMatchDesign) {
  EXPECT_TRUE(is_consistent_protocol(ProtocolKind::kBasic));
  EXPECT_TRUE(is_consistent_protocol(ProtocolKind::kOptimized));
  EXPECT_TRUE(is_consistent_protocol(ProtocolKind::kBlockingDynamic));
  EXPECT_TRUE(is_consistent_protocol(ProtocolKind::kHybridJm));
  EXPECT_TRUE(is_consistent_protocol(ProtocolKind::kThreePhaseRecovery));
  EXPECT_TRUE(is_consistent_protocol(ProtocolKind::kStaticMajority));
  EXPECT_FALSE(is_consistent_protocol(ProtocolKind::kNaiveDynamic));
  EXPECT_FALSE(is_consistent_protocol(ProtocolKind::kLastAttemptOnly));
}

TEST(Service, ReportsPrimaryStateAndProcess) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  auto service = cluster.service(ProcessId(1));
  EXPECT_TRUE(service.in_primary());
  EXPECT_EQ(service.process(), ProcessId(1));
  ASSERT_TRUE(service.primary().has_value());
  EXPECT_EQ(service.primary()->members, ProcessSet::range(5));
  cluster.partition({ProcessSet::of({0, 2, 3, 4}), ProcessSet::of({1})});
  cluster.settle();
  EXPECT_FALSE(cluster.service(ProcessId(1)).in_primary());
}

}  // namespace
}  // namespace dynvote
