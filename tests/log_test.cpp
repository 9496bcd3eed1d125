// Integration tests: the replicated totally-ordered log on the
// primary-component service.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "app/replicated_log.hpp"
#include "app_sync_reference.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "util/rng.hpp"

namespace dynvote::app {
namespace {

ClusterOptions options_for(ProtocolKind kind, std::uint64_t seed = 71) {
  ClusterOptions options;
  options.kind = kind;
  options.n = 5;
  options.sim.seed = seed;
  return options;
}

TEST(LogPosition, OrdersByEpochThenIndex) {
  EXPECT_LT((LogPosition{1, 9}), (LogPosition{2, 0}));
  EXPECT_LT((LogPosition{2, 0}), (LogPosition{2, 1}));
  EXPECT_EQ((LogPosition{3, 4}).to_string(), "(3:4)");
}

TEST(ReplicatedLog, AppendsOnlyInsidePrimary) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  ReplicatedLog log(cluster);
  EXPECT_TRUE(log.append(ProcessId(0), "a").has_value());
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_TRUE(log.append(ProcessId(1), "b").has_value());
  EXPECT_FALSE(log.append(ProcessId(4), "x").has_value());
  EXPECT_EQ(log.accepted_appends(), 2u);
}

TEST(ReplicatedLog, IndexesAdvanceWithinAnEpoch) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  ReplicatedLog log(cluster);
  const auto p1 = log.append(ProcessId(0), "a");
  const auto p2 = log.append(ProcessId(1), "b");
  const auto p3 = log.append(ProcessId(0), "c");
  ASSERT_TRUE(p1 && p2 && p3);
  EXPECT_EQ(p1->epoch, p2->epoch);
  EXPECT_LT(*p1, *p2);
  EXPECT_LT(*p2, *p3);
}

TEST(ReplicatedLog, EpochsAdvanceAcrossPrimaries) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  ReplicatedLog log(cluster);
  const auto before = log.append(ProcessId(0), "old");
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  const auto after = log.append(ProcessId(0), "new");
  ASSERT_TRUE(before && after);
  EXPECT_LT(before->epoch, after->epoch);
  EXPECT_EQ(after->index, 0u);  // fresh epoch starts at zero
}

TEST(ReplicatedLog, SyncBringsReplicasToSamePrefix) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  ReplicatedLog log(cluster);
  log.append(ProcessId(0), "a");
  log.append(ProcessId(2), "b");
  log.sync_primary();
  for (std::uint32_t p = 0; p < 5; ++p) {
    ASSERT_EQ(log.replica(ProcessId(p)).size(), 2u) << "p" << p;
    EXPECT_EQ(log.replica(ProcessId(p)).entries()[0].payload, "a");
    EXPECT_EQ(log.replica(ProcessId(p)).entries()[1].payload, "b");
  }
  EXPECT_TRUE(log.audit().empty());
}

TEST(ReplicatedLog, MinorityCatchesUpAfterHeal) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  ReplicatedLog log(cluster);
  log.append(ProcessId(0), "a");
  log.sync_primary();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  log.append(ProcessId(0), "b");
  log.append(ProcessId(1), "c");
  log.sync_primary();
  EXPECT_EQ(log.replica(ProcessId(4)).size(), 1u);  // stale
  cluster.merge();
  cluster.settle();
  log.sync_primary();
  EXPECT_EQ(log.replica(ProcessId(4)).size(), 3u);
  EXPECT_TRUE(log.audit().empty());
}

TEST(ReplicatedLog, ConsistentUnderRepeatedChurn) {
  Cluster cluster(options_for(ProtocolKind::kOptimized, 73));
  cluster.start();
  ReplicatedLog log(cluster);
  int n = 0;
  for (int round = 0; round < 6; ++round) {
    for (std::uint32_t p = 0; p < 5; ++p) {
      log.append(ProcessId(p), "m" + std::to_string(n++));
    }
    log.sync_primary();
    cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
    cluster.settle();
    for (std::uint32_t p = 0; p < 5; ++p) {
      log.append(ProcessId(p), "m" + std::to_string(n++));
    }
    log.sync_primary();
    cluster.merge();
    cluster.settle();
  }
  log.sync_primary();
  EXPECT_TRUE(log.audit().empty());
  // Every replica inside the final primary holds the identical log.
  const auto& reference = log.replica(ProcessId(0)).entries();
  for (std::uint32_t p = 1; p < 5; ++p) {
    EXPECT_EQ(log.replica(ProcessId(p)).entries(), reference) << "p" << p;
  }
  EXPECT_GT(log.accepted_appends(), 0u);
}

TEST(ReplicatedLog, NaiveSplitBrainProducesConflictingAppends) {
  Cluster cluster(options_for(ProtocolKind::kNaiveDynamic));
  ReplicatedLog log(cluster);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.info", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  ASSERT_TRUE(log.append(ProcessId(0), "left").has_value());
  ASSERT_TRUE(log.append(ProcessId(2), "right").has_value());
  EXPECT_FALSE(log.audit().empty());
}

TEST(ReplicatedLog, OurProtocolSameScenarioStaysClean) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  ReplicatedLog log(cluster);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  ASSERT_TRUE(log.append(ProcessId(0), "left").has_value());
  EXPECT_FALSE(log.append(ProcessId(2), "right").has_value());
  EXPECT_TRUE(log.audit().empty());
}

// Two groups of three, one component each: an append in group 1's
// primary while group 0's disjoint primary is live is no conflict, so
// the audit asks the appender's own group's checker.
TEST(ReplicatedLog, AuditChecksEachAppendAgainstItsOwnGroup) {
  ClusterOptions options = options_for(ProtocolKind::kOptimized);
  options.n = 3;
  Cluster cluster(options);
  DvConfig second = cluster.config();
  second.core = ProcessSet::of({3, 4, 5});
  cluster.add_group(second);
  cluster.partition({cluster.config(0).core, cluster.config(1).core});
  cluster.settle();
  ReplicatedLog log(cluster);
  ASSERT_TRUE(log.append(ProcessId(3), "a").has_value());
  const std::vector<LogDivergence> divergences = log.audit();
  EXPECT_TRUE(divergences.empty()) << divergences.front().detail;
}

// ---- state transfer: linear merge vs the all-pairs reference ---------------

/// m random sorted logs over a small position space; payloads at one
/// position may differ between members (pinning which member a missing
/// position is filled from), and some logs are empty or hold a position
/// no other member has.
std::vector<std::vector<LogEntry>> random_logs(Rng& rng, std::size_t m) {
  std::vector<std::vector<LogEntry>> logs(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (rng.next_bool(0.15)) continue;  // an empty replica
    std::set<LogPosition> positions;
    const auto count = rng.next_range(1, 20);
    for (std::uint64_t c = 0; c < count; ++c) {
      positions.insert(LogPosition{static_cast<SessionNumber>(rng.next_below(5)),
                                   rng.next_below(8)});
    }
    if (rng.next_bool(0.5)) {  // a position no other member holds
      positions.insert(LogPosition{9, 100 + i});
    }
    for (const LogPosition& position : positions) {
      logs[i].push_back(LogEntry{
          position, "p" + std::to_string(rng.next_below(3)),
          ProcessSet::of({static_cast<std::uint32_t>(rng.next_below(5))})});
    }
  }
  return logs;
}

TEST(LogStateTransfer, LinearMergeMatchesAllPairsOnRandomMembers) {
  constexpr std::size_t kSizes[] = {1, 2, 3, 17, 64};
  for (std::uint64_t seed = 0; seed < 250; ++seed) {
    Rng rng(seed);
    const std::size_t m = kSizes[seed % std::size(kSizes)];
    auto expected = random_logs(rng, m);
    auto actual = expected;
    reference::all_pairs_sync(reference::pointers(expected));
    sync_logs(reference::pointers(actual));
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(actual[i], expected[i]) << "seed " << seed << " member " << i;
    }
  }
}

TEST(LogStateTransfer, MissingPositionsComeFromTheLowestIndexHolder) {
  const ProcessSet none;
  std::vector<std::vector<LogEntry>> logs{
      {},
      {LogEntry{{1, 0}, "b", none}},
      {LogEntry{{1, 0}, "c", none}, LogEntry{{1, 1}, "c", none}}};
  sync_logs(reference::pointers(logs));
  EXPECT_EQ(logs[0], (std::vector<LogEntry>{LogEntry{{1, 0}, "b", none},
                                            LogEntry{{1, 1}, "c", none}}));
  EXPECT_EQ(logs[1], logs[0]);
  EXPECT_EQ(logs[2][0].payload, "c");  // a member keeps its own entries
  EXPECT_EQ(logs[2][1].payload, "c");
}

TEST(LogStateTransfer, SplitBrainSyncMatchesAllPairsWithinEachSession) {
  Cluster cluster(options_for(ProtocolKind::kNaiveDynamic));
  ReplicatedLog log(cluster);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.info", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  log.append(ProcessId(1), "before");
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  for (std::uint32_t p = 0; p < 5; ++p) {
    log.append(ProcessId(p), "m" + std::to_string(p));
  }

  std::vector<std::vector<LogEntry>> expected;
  std::map<Session, std::vector<std::vector<LogEntry>*>> sessions;
  expected.reserve(5);
  for (std::uint32_t p = 0; p < 5; ++p) {
    expected.push_back(log.replica(ProcessId(p)).entries());
  }
  for (std::uint32_t p = 0; p < 5; ++p) {
    const auto& primary = cluster.service(ProcessId(p)).primary();
    if (primary) sessions[*primary].push_back(&expected[p]);
  }
  ASSERT_EQ(sessions.size(), 2u);
  for (const auto& [session, members] : sessions) {
    reference::all_pairs_sync(members);
  }

  log.sync_primary();
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(log.replica(ProcessId(p)).entries(), expected[p]) << "p" << p;
  }
}

}  // namespace
}  // namespace dynvote::app
