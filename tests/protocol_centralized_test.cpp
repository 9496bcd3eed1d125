// Integration tests: the centralized variant (paper section 4.4) — same
// quorum decisions as the symmetric protocol with fewer point-to-point
// messages, coordinator failure handling, and the attempt-before-ack
// durability that preserves the safety argument.
#include <gtest/gtest.h>

#include "dv/centralized_protocol.hpp"
#include "harness/cluster.hpp"
#include "harness/metrics.hpp"
#include "harness/scenario.hpp"

namespace dynvote {
namespace {

ClusterOptions centralized_options(std::uint64_t seed = 61) {
  ClusterOptions options;
  options.kind = ProtocolKind::kCentralized;
  options.n = 5;
  options.sim.seed = seed;
  return options;
}

const CentralizedDvProtocol& cent(Cluster& cluster, std::uint32_t p) {
  return dynamic_cast<const CentralizedDvProtocol&>(
      cluster.protocol(ProcessId(p)));
}

TEST(CentralizedProtocol, CoordinatorIsLowestRankedMember) {
  EXPECT_EQ(CentralizedDvProtocol::coordinator_of(
                View{ViewId(1), ProcessSet::of({3, 1, 4})}),
            ProcessId(1));
}

TEST(CentralizedProtocol, FormsInitialPrimary) {
  Cluster cluster(centralized_options());
  cluster.start();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::range(5));
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(CentralizedProtocol, SameQuorumDecisionsAsSymmetric) {
  // Replay the same partition chain on both variants; the formed
  // memberships must agree step for step.
  Cluster centralized(centralized_options());
  ClusterOptions sym_options = centralized_options();
  sym_options.kind = ProtocolKind::kBasic;
  Cluster symmetric(sym_options);

  const std::vector<std::vector<ProcessSet>> steps = {
      {ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})},
      {ProcessSet::of({0, 1}), ProcessSet::of({2}), ProcessSet::of({3, 4})},
      {ProcessSet::range(5)},
  };
  for (Cluster* cluster : {&centralized, &symmetric}) {
    cluster->start();
    for (const auto& groups : steps) {
      cluster->partition(groups);
      cluster->settle();
    }
  }
  ASSERT_TRUE(centralized.live_primary().has_value());
  ASSERT_TRUE(symmetric.live_primary().has_value());
  EXPECT_EQ(centralized.live_primary()->members,
            symmetric.live_primary()->members);
  EXPECT_TRUE(centralized.checker().check_all().empty());
}

TEST(CentralizedProtocol, FewerMessagesThanSymmetric) {
  Cluster centralized(centralized_options());
  ClusterOptions sym_options = centralized_options();
  sym_options.kind = ProtocolKind::kBasic;
  Cluster symmetric(sym_options);
  for (Cluster* cluster : {&centralized, &symmetric}) {
    cluster->start();
    for (int i = 0; i < 10; ++i) {
      cluster->partition({ProcessSet::of({1, 2, 3, 4}), ProcessSet::of({0})});
      cluster->settle();
      cluster->merge();
      cluster->settle();
    }
  }
  const auto c = RunMetrics::collect(centralized);
  const auto s = RunMetrics::collect(symmetric);
  EXPECT_EQ(c.formed_sessions, s.formed_sessions);
  // 4(n-1) point-to-point messages versus 2n^2: at n = 5 that is 16 vs
  // 50 per full-view quorum — expect a >2x reduction overall.
  EXPECT_LT(2 * c.messages_sent, s.messages_sent);
}

TEST(CentralizedProtocol, ReportsFourRounds) {
  Cluster cluster(centralized_options());
  cluster.start();
  EXPECT_DOUBLE_EQ(cluster.observer().rounds().mean(), 4.0);
}

TEST(CentralizedProtocol, MemberAttemptIsDurableBeforeAck) {
  // Drop the COMMIT to p2: everyone else forms, p2 keeps the ambiguous
  // record — the same guarantee as the symmetric protocol's lost
  // attempt round.
  Cluster cluster(centralized_options());
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dvc.commit", 1);
  cluster.start();
  EXPECT_TRUE(cluster.protocol(ProcessId(0)).is_primary());
  EXPECT_FALSE(cluster.protocol(ProcessId(2)).is_primary());
  ASSERT_EQ(cent(cluster, 2).state().ambiguous.size(), 1u);
  EXPECT_EQ(cent(cluster, 2).state().ambiguous[0].session.members,
            ProcessSet::range(5));
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(CentralizedProtocol, TypicalScenarioStaysSafe) {
  // The section-1 scenario, centralized edition: c misses the commit of
  // the {a,b,c} session, then joins d,e — and is correctly refused.
  Cluster cluster(centralized_options());
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dvc.commit", 1);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({0, 1}));
  EXPECT_FALSE(cluster.protocol(ProcessId(2)).is_primary());
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(CentralizedProtocol, CoordinatorCrashMidSessionRecovers) {
  Cluster cluster(centralized_options());
  FaultInjector faults(cluster.sim().network());
  // Stall the session by eating the coordinator's decision fan-out...
  faults.drop_to(ProcessId(1), "dvc.attempt", 1);
  faults.drop_to(ProcessId(2), "dvc.attempt", 1);
  faults.drop_to(ProcessId(3), "dvc.attempt", 1);
  faults.drop_to(ProcessId(4), "dvc.attempt", 1);
  cluster.merge();
  cluster.settle();
  EXPECT_FALSE(cluster.live_primary().has_value());
  faults.clear();
  // ...then kill the coordinator p0. The membership change drives a new
  // session with p1 coordinating; the survivors recover.
  cluster.crash(ProcessId(0));
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({1, 2, 3, 4}));
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(CentralizedProtocol, SingletonViewFormsImmediately) {
  // Regression: in a one-member view the coordinator's own (implicit)
  // acknowledgement completes the round — there is no member ack to
  // trigger the commit check.
  Cluster cluster(centralized_options());
  cluster.start();
  cluster.partition({ProcessSet::of({3, 4}), ProcessSet::of({0, 1, 2})});
  cluster.settle();
  ASSERT_TRUE(cluster.live_primary().has_value());  // {0,1,2}
  cluster.partition({ProcessSet::of({2}), ProcessSet::of({0, 1}),
                     ProcessSet::of({3, 4})});
  cluster.settle();
  ASSERT_TRUE(cluster.protocol(ProcessId(0)).is_primary());  // {0,1}: 2/3
  cluster.partition({ProcessSet::of({1}), ProcessSet::of({0}),
                     ProcessSet::of({2}), ProcessSet::of({3, 4})});
  cluster.settle();
  // {1} is half of {0,1} holding the top rank: a singleton primary.
  EXPECT_TRUE(cluster.protocol(ProcessId(1)).is_primary());
  EXPECT_FALSE(cluster.protocol(ProcessId(0)).is_primary());
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(CentralizedProtocol, CrashRecoveryRestoresState) {
  Cluster cluster(centralized_options());
  cluster.start();
  const auto before = cent(cluster, 3).state();
  cluster.crash(ProcessId(3));
  cluster.settle();
  cluster.recover(ProcessId(3));
  cluster.settle();
  EXPECT_EQ(cent(cluster, 3).state().last_primary, before.last_primary);
  cluster.merge();
  cluster.settle();
  EXPECT_TRUE(cluster.live_primary().has_value());
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(CentralizedProtocol, MinQuorumRespected) {
  ClusterOptions options = centralized_options();
  options.config.min_quorum = 3;
  Cluster cluster(options);
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  EXPECT_FALSE(cluster.protocol(ProcessId(0)).is_primary());
  EXPECT_TRUE(cluster.protocol(ProcessId(2)).is_primary());
  EXPECT_GT(cluster.observer().rejected(), 0u);
}

TEST(CentralizedProtocol, DynamicParticipantsWork) {
  ClusterOptions options = centralized_options();
  options.n = 3;
  options.config.dynamic_participants = true;
  Cluster cluster(options);
  cluster.start();
  cluster.add_process(ProcessId(7));
  cluster.merge();
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({0, 1, 2, 7}));
  EXPECT_EQ(cent(cluster, 0).state().participants.admitted(),
            ProcessSet::of({0, 1, 2, 7}));
}

}  // namespace
}  // namespace dynvote
