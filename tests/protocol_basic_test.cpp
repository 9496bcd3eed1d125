// Integration tests: the basic protocol (paper figure 1) on the full
// simulated stack — quorum succession, tie-breaks, Min_Quorum, crashes,
// recovery, disk loss, view churn.
#include <algorithm>
#include <compare>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dv/basic_protocol.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

ClusterOptions basic_options(std::uint64_t seed = 1) {
  ClusterOptions options;
  options.kind = ProtocolKind::kBasic;
  options.n = 5;
  options.sim.seed = seed;
  return options;
}

const BasicDvProtocol& dv_state_of(Cluster& cluster, std::uint32_t p) {
  return dynamic_cast<const BasicDvProtocol&>(cluster.protocol(ProcessId(p)));
}

void expect_consistent(Cluster& cluster) {
  const auto violations = cluster.checker().check_all();
  EXPECT_TRUE(violations.empty()) << to_string(violations);
}

TEST(BasicProtocol, FullGroupFormsInitialPrimary) {
  Cluster cluster(basic_options());
  cluster.start();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::range(5));
  EXPECT_EQ(cluster.primary_members(), ProcessSet::range(5));
  expect_consistent(cluster);
}

TEST(BasicProtocol, FormingClearsAmbiguousSessions) {
  Cluster cluster(basic_options());
  cluster.start();
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_TRUE(dv_state_of(cluster, p).state().ambiguous.empty());
    EXPECT_TRUE(dv_state_of(cluster, p).state().last_primary.has_value());
  }
}

TEST(BasicProtocol, SessionNumbersAdvanceTogether) {
  Cluster cluster(basic_options());
  cluster.start();
  const auto n0 = dv_state_of(cluster, 0).state().session_number;
  for (std::uint32_t p = 1; p < 5; ++p) {
    EXPECT_EQ(dv_state_of(cluster, p).state().session_number, n0);
  }
  EXPECT_GT(n0, 0);
}

TEST(BasicProtocol, MajoritySideKeepsPrimaryAfterPartition) {
  Cluster cluster(basic_options());
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({0, 1, 2}));
  EXPECT_FALSE(cluster.protocol(ProcessId(3)).is_primary());
  EXPECT_FALSE(cluster.protocol(ProcessId(4)).is_primary());
  expect_consistent(cluster);
}

TEST(BasicProtocol, QuorumChainShrinksToOneProcess) {
  // 5 -> 3 -> 2 -> 1: each step a majority (or tie-win) of the previous.
  Cluster cluster(basic_options());
  cluster.start();
  cluster.partition({ProcessSet::of({2, 3, 4}), ProcessSet::of({0, 1})});
  cluster.settle();
  cluster.partition({ProcessSet::of({3, 4}), ProcessSet::of({2})});
  cluster.settle();
  cluster.partition({ProcessSet::of({4}), ProcessSet::of({3})});
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({4}));
  expect_consistent(cluster);
}

TEST(BasicProtocol, ExactHalfResolvedByLinearOrder) {
  // From {0,1,2,3}: the half containing p3 (top-ranked) wins the tie.
  ClusterOptions options = basic_options();
  options.n = 4;
  Cluster cluster(options);
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3})});
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({2, 3}));
  EXPECT_FALSE(cluster.protocol(ProcessId(0)).is_primary());
  expect_consistent(cluster);
}

TEST(BasicProtocol, MinoritySideRejectsWithReason) {
  Cluster cluster(basic_options());
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_GT(cluster.observer().rejected(), 0u);
}

TEST(BasicProtocol, MinQuorumBlocksSingletons) {
  ClusterOptions options = basic_options();
  options.config.min_quorum = 2;
  Cluster cluster(options);
  cluster.start();
  cluster.partition({ProcessSet::of({2, 3, 4}), ProcessSet::of({0, 1})});
  cluster.settle();
  cluster.partition({ProcessSet::of({4}), ProcessSet::of({2, 3})});
  cluster.settle();
  // {2,3} (majority of {2,3,4}, two core members) may proceed; the
  // singleton {4} cannot.
  EXPECT_FALSE(cluster.protocol(ProcessId(4)).is_primary());
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({2, 3}));
  // And {2,3} can never shrink to a singleton either.
  cluster.partition({ProcessSet::of({2}), ProcessSet::of({3}),
                     ProcessSet::of({4})});
  cluster.settle();
  EXPECT_FALSE(cluster.live_primary().has_value());
  expect_consistent(cluster);
}

TEST(BasicProtocol, MinQuorumUnconditionalClauseUnblocksLargeGroup) {
  // After the primary is lost in small pieces, a group of more than
  // n - Min_Quorum core members proceeds regardless of history.
  ClusterOptions options = basic_options();
  options.config.min_quorum = 2;
  Cluster cluster(options);
  cluster.start();
  // Split so no component can form: {0,1} {2,3} {4} after primary {0..4}.
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3}),
                     ProcessSet::of({4})});
  cluster.settle();
  EXPECT_FALSE(cluster.live_primary().has_value());
  // Reconnect 4 of 5 (> n - Min_Quorum = 3): unconditional clause fires.
  cluster.partition({ProcessSet::of({0, 1, 2, 3}), ProcessSet::of({4})});
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({0, 1, 2, 3}));
  expect_consistent(cluster);
}

TEST(BasicProtocol, MergeAfterPartitionRestoresFullPrimary) {
  Cluster cluster(basic_options());
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  cluster.merge();
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::range(5));
  expect_consistent(cluster);
}

TEST(BasicProtocol, MinorityCannotFormEvenAfterInternalChurn) {
  Cluster cluster(basic_options());
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  // The minority reshuffles internally; still no quorum.
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3}),
                     ProcessSet::of({4})});
  cluster.settle();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_FALSE(cluster.protocol(ProcessId(3)).is_primary());
  EXPECT_FALSE(cluster.protocol(ProcessId(4)).is_primary());
  expect_consistent(cluster);
}

TEST(BasicProtocol, CrashOfMinorityKeepsPrimaryAlive) {
  Cluster cluster(basic_options());
  cluster.start();
  cluster.crash(ProcessId(4));
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::of({0, 1, 2, 3}));
  expect_consistent(cluster);
}

TEST(BasicProtocol, CrashedProcessRecoversStateFromStableStorage) {
  Cluster cluster(basic_options());
  cluster.start();
  const auto before = dv_state_of(cluster, 4).state();
  cluster.crash(ProcessId(4));
  cluster.settle();
  cluster.recover(ProcessId(4));
  cluster.settle();
  const auto& after = dv_state_of(cluster, 4).state();
  EXPECT_EQ(after.last_primary, before.last_primary);
  EXPECT_TRUE(after.has_history);
  cluster.merge();
  cluster.settle();
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::range(5));
  expect_consistent(cluster);
}

TEST(BasicProtocol, DiskLossComesBackAsInfinityButSystemProceeds) {
  Cluster cluster(basic_options());
  cluster.start();
  cluster.sim().crash_and_destroy_disk(ProcessId(4));
  cluster.settle();
  cluster.recover(ProcessId(4));
  cluster.settle();
  const auto& state = dv_state_of(cluster, 4).state();
  EXPECT_FALSE(state.last_primary.has_value());  // (∞, -1), paper footnote 4
  EXPECT_FALSE(state.has_history);
  cluster.merge();
  cluster.settle();
  // The survivors' history carries the group: a primary still forms.
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::range(5));
  expect_consistent(cluster);
}

TEST(BasicProtocol, AllDisksDestroyedMeansNoPrimaryEver) {
  // Sub_Quorum(∞, T) is FALSE: with every history gone, nothing can form.
  Cluster cluster(basic_options());
  cluster.start();
  for (std::uint32_t p = 0; p < 5; ++p) {
    cluster.sim().crash_and_destroy_disk(ProcessId(p));
  }
  cluster.settle();
  for (std::uint32_t p = 0; p < 5; ++p) cluster.recover(ProcessId(p));
  cluster.merge();
  cluster.settle();
  EXPECT_FALSE(cluster.live_primary().has_value());
  EXPECT_GT(cluster.observer().rejected(), 0u);
}

TEST(BasicProtocol, LosesPrimacyInstantlyOnViewChange) {
  Cluster cluster(basic_options());
  cluster.start();
  ASSERT_TRUE(cluster.protocol(ProcessId(0)).is_primary());
  // Any new view sets Is_Primary to FALSE in step 1 — even a spurious one.
  cluster.oracle().inject_view(ProcessSet::range(5));
  cluster.sim().run_until(cluster.sim().now() + 900);  // views delivered
  // After the session completes it becomes primary again.
  cluster.settle();
  EXPECT_TRUE(cluster.protocol(ProcessId(0)).is_primary());
  expect_consistent(cluster);
}

TEST(BasicProtocol, SpuriousMinorityViewDoesNotFormQuorum) {
  Cluster cluster(basic_options());
  cluster.start();
  // The oracle lies to {3,4}: claims they are alone. They must not form.
  cluster.oracle().inject_view(ProcessSet::of({3, 4}));
  cluster.settle();
  EXPECT_FALSE(cluster.protocol(ProcessId(3)).is_primary());
  EXPECT_FALSE(cluster.protocol(ProcessId(4)).is_primary());
  expect_consistent(cluster);
}

TEST(BasicProtocol, RepeatedPartitionMergeCyclesStayConsistent) {
  Cluster cluster(basic_options(7));
  cluster.start();
  for (int round = 0; round < 10; ++round) {
    cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
    cluster.settle();
    cluster.merge();
    cluster.settle();
  }
  const auto primary = cluster.live_primary();
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->members, ProcessSet::range(5));
  expect_consistent(cluster);
}

TEST(BasicProtocol, UsesExactlyTwoRounds) {
  Cluster cluster(basic_options());
  cluster.start();
  EXPECT_DOUBLE_EQ(cluster.observer().rounds().mean(), 2.0);
  EXPECT_EQ(cluster.observer().rounds().max(), 2u);
}

TEST(BasicProtocol, AttemptRecordedWhenFormIsCut) {
  // Drop all attempt deliveries to p2: everyone else forms; p2 keeps the
  // session as ambiguous. This is the protocol's core safety mechanism.
  Cluster cluster(basic_options());
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt");
  cluster.start();
  EXPECT_TRUE(cluster.protocol(ProcessId(0)).is_primary());
  EXPECT_FALSE(cluster.protocol(ProcessId(2)).is_primary());
  const auto& state = dv_state_of(cluster, 2).state();
  ASSERT_EQ(state.ambiguous.size(), 1u);
  EXPECT_EQ(state.ambiguous[0].session.members, ProcessSet::range(5));
  expect_consistent(cluster);
}

// ---- aggregate_step1 against a std::set reference ----------------------------

/// Orders sessions by (member list, number) without ProcessSet's
/// operator<=>, so the reference below is independent of the word-wise
/// compare aggregate_step1 relies on.
struct ByMemberLists {
  bool operator()(const Session& a, const Session& b) const {
    const std::strong_ordering lists = std::lexicographical_compare_three_way(
        a.members.begin(), a.members.end(), b.members.begin(),
        b.members.end());
    if (lists != 0) return lists < 0;
    return a.number < b.number;
  }
};

/// The reference: a std::set of the ambiguous attempts and the
/// Max_Primary tie-break on the member lists, walked id by id.
StepAggregates reference_aggregate_step1(const InfoBySender& infos) {
  StepAggregates agg;
  agg.max_session = kNoSessionNumber;
  for (const auto& [from, info] : infos) {
    agg.max_session = std::max(agg.max_session, info->session_number);
    if (info->last_primary) {
      if (!agg.max_primary ||
          info->last_primary->number > agg.max_primary->number ||
          (info->last_primary->number == agg.max_primary->number &&
           std::lexicographical_compare(
               info->last_primary->members.begin(),
               info->last_primary->members.end(),
               agg.max_primary->members.begin(),
               agg.max_primary->members.end()))) {
        agg.max_primary = info->last_primary;
      }
    }
  }
  const SessionNumber floor =
      agg.max_primary ? agg.max_primary->number : kNoSessionNumber;
  std::set<Session, ByMemberLists> distinct;
  for (const auto& [from, info] : infos) {
    for (const Session& attempt : info->ambiguous) {
      if (attempt.number > floor) distinct.insert(attempt);
    }
  }
  agg.max_ambiguous.assign(distinct.begin(), distinct.end());
  return agg;
}

TEST(AggregateStep1, MatchesTheSetReferenceOnRandomInfos) {
  Rng rng(22);
  const auto random_members = [&rng] {
    ProcessSet members;
    const std::uint64_t size = 1 + rng.next_below(6);
    for (std::uint64_t i = 0; i < size; ++i) {
      // Mostly small ids, some past the inline limit (extension words).
      members.insert(ProcessId(static_cast<std::uint32_t>(
          rng.next_bool(0.8) ? rng.next_below(12) : 250 + rng.next_below(20))));
    }
    return members;
  };
  for (int round = 0; round < 2000; ++round) {
    // A small pool of sessions shared by the senders, so attempts repeat
    // across infos; numbers repeat with different members, including
    // the Last_Primary values only a broken baseline reports.
    std::vector<Session> pool;
    for (std::uint64_t i = 1 + rng.next_below(8); i > 0; --i) {
      pool.push_back(
          Session{random_members(),
                  static_cast<SessionNumber>(rng.next_below(5))});
    }
    const std::size_t senders = 1 + rng.next_below(8);
    std::vector<InfoPayload> payloads(senders);
    InfoBySender infos;
    for (std::size_t q = 0; q < senders; ++q) {
      InfoPayload& info = payloads[q];
      info.session_number = static_cast<SessionNumber>(rng.next_below(7)) - 1;
      if (rng.next_bool(0.8)) {
        info.last_primary = pool[rng.next_below(pool.size())];
      }
      for (std::uint64_t k = rng.next_below(4); k > 0; --k) {
        info.ambiguous.push_back(pool[rng.next_below(pool.size())]);
      }
      infos.emplace_back(ProcessId(static_cast<std::uint32_t>(q)), &info);
    }

    const StepAggregates got = aggregate_step1(infos);
    const StepAggregates want = reference_aggregate_step1(infos);
    EXPECT_EQ(got.max_session, want.max_session);
    EXPECT_EQ(got.max_primary, want.max_primary)
        << to_string(got.max_primary) << " vs " << to_string(want.max_primary);
    EXPECT_EQ(got.max_ambiguous, want.max_ambiguous) << "round " << round;
  }
}

// ---- SessionProtocolBase's phase-message guards -----------------------------

class StrayPayload final : public sim::MessagePayload {
 public:
  [[nodiscard]] std::string type_name() const override { return "stray"; }
  [[nodiscard]] std::size_t encoded_size() const override { return 1; }
};

/// Installs the view {p0,p1,p2} at p0 without running the simulation, so
/// p0's session waits in phase 0 for all three infos, then hands `sends`
/// to p0 in that view. Returns the InvariantViolation text, or "".
std::string deliver_to_waiting_session(
    const std::vector<std::pair<ProcessId, sim::PayloadPtr>>& sends) {
  ClusterOptions options = basic_options();
  options.n = 3;
  Cluster cluster(options);
  ProtocolNode& node = cluster.protocol(ProcessId(0));
  const View view{ViewId(1), ProcessSet::range(3)};
  node.deliver_view(view);
  try {
    for (const auto& [from, payload] : sends) {
      node.deliver_message(sim::Envelope{from, ProcessId(0), view.id, payload});
    }
  } catch (const InvariantViolation& e) {
    return e.what();
  }
  return "";
}

TEST(PhaseMessageGuard, RejectsANonPhasedPayload) {
  const std::string what = deliver_to_waiting_session(
      {{ProcessId(1), std::make_shared<StrayPayload>()}});
  EXPECT_NE(what.find("non-phased payload"), std::string::npos) << what;
}

TEST(PhaseMessageGuard, RejectsAPhasePastTheLast) {
  // The basic protocol has two phases: info (0) and attempt (1).
  const std::string what = deliver_to_waiting_session(
      {{ProcessId(1), std::make_shared<AttemptPayload>(2)}});
  EXPECT_NE(what.find("phase out of range"), std::string::npos) << what;
}

TEST(PhaseMessageGuard, RejectsASenderOutsideTheSessionView) {
  const std::string what = deliver_to_waiting_session(
      {{ProcessId(7), std::make_shared<InfoPayload>()}});
  EXPECT_NE(what.find("message from non-member"), std::string::npos) << what;
}

TEST(PhaseMessageGuard, RejectsAWrongPayloadClassWhenAPhaseCompletes) {
  const std::vector<ProcessId> members = {ProcessId(0), ProcessId(1),
                                          ProcessId(2)};
  // Phase 0 filled with attempts instead of infos.
  std::vector<std::pair<ProcessId, sim::PayloadPtr>> sends;
  for (const ProcessId q : members) {
    sends.emplace_back(q, std::make_shared<AttemptPayload>(0));
  }
  std::string what = deliver_to_waiting_session(sends);
  EXPECT_NE(what.find("phase-0 message is not an InfoPayload"),
            std::string::npos)
      << what;

  // Eligible infos, then phase 1 filled with a payload other than an
  // attempt.
  sends.clear();
  for (const ProcessId q : members) {
    auto info = std::make_shared<InfoPayload>();
    info->last_primary = Session{ProcessSet::range(3), 0};
    sends.emplace_back(q, std::move(info));
  }
  for (const ProcessId q : members) {
    sends.emplace_back(q, std::make_shared<RoundPayload>(1, "not-an-attempt"));
  }
  what = deliver_to_waiting_session(sends);
  EXPECT_NE(what.find("form-step message is not an AttemptPayload"),
            std::string::npos)
      << what;
}

TEST(PhaseMessageGuard, RejectsASecondMessageFromOneSenderInOnePhase) {
  const auto info = std::make_shared<InfoPayload>();
  EXPECT_EQ(deliver_to_waiting_session({{ProcessId(1), info}}), "");
  const std::string what =
      deliver_to_waiting_session({{ProcessId(1), info}, {ProcessId(1), info}});
  EXPECT_NE(what.find("duplicate phase message"), std::string::npos) << what;
}

}  // namespace
}  // namespace dynvote
