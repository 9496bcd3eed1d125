// Integration tests: the replicated totally-ordered log on the
// primary-component service.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "app/replicated_log.hpp"
#include "app_sync_reference.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "util/rng.hpp"

namespace dynvote::app {

// A failed comparison of two logs prints each entry as its position,
// payload and epoch members rather than a dump of its bytes.
void PrintTo(const LogEntry& entry, std::ostream* os) {
  *os << entry.position.to_string() << " '" << entry.payload << "' "
      << entry.epoch_members.to_string();
}

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

TEST(LogPosition, KeysOrderLikePositions) {
  const std::vector<LogPosition> positions{
      {0, 0}, {1, 9}, {1, 10}, {2, 0}, {9, 99}, {10, 0}, {10, ~0ull}, {11, 0}};
  for (std::size_t i = 1; i < positions.size(); ++i) {
    EXPECT_LT(position_key(positions[i - 1]), position_key(positions[i]))
        << positions[i].to_string();
  }
  EXPECT_EQ(position_stamp(LogPosition{3, 4}), (Version{3, 4, ProcessId()}));
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
    const std::vector<LogEntry> entries = log.entries(ProcessId(p));
    ASSERT_EQ(entries.size(), 2u) << "p" << p;
    EXPECT_EQ(entries[0].payload, "a");
    EXPECT_EQ(entries[1].payload, "b");
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
  EXPECT_EQ(log.entries(ProcessId(4)).size(), 1u);  // stale
  cluster.merge();
  cluster.settle();
  log.sync_primary();
  EXPECT_EQ(log.entries(ProcessId(4)).size(), 3u);
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
  const std::vector<LogEntry> reference = log.entries(ProcessId(0));
  for (std::uint32_t p = 1; p < 5; ++p) {
    EXPECT_EQ(log.entries(ProcessId(p)), reference) << "p" << p;
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
  const std::vector<Divergence> divergences = log.audit();
  EXPECT_TRUE(divergences.empty()) << divergences.front().detail;
}

// Two groups of three, one primary each, both in epoch 1: the two
// sequencers mint the same position, and that is no conflict, because
// the groups' orders are independent; the audit compares replicas only
// within a group.
TEST(ReplicatedLog, IndependentGroupsShareEpochNumbersWithoutConflict) {
  ClusterOptions options = options_for(ProtocolKind::kOptimized);
  options.n = 3;
  Cluster cluster(options);
  DvConfig second = cluster.config();
  second.core = ProcessSet::of({3, 4, 5});
  cluster.add_group(second);
  cluster.partition({cluster.config(0).core, cluster.config(1).core});
  cluster.settle();
  ReplicatedLog log(cluster);
  const auto a = log.append(ProcessId(0), "a");
  const auto b = log.append(ProcessId(3), "b");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, (LogPosition{1, 0}));
  EXPECT_EQ(*b, *a);
  log.sync_primary();
  const std::vector<LogEntry> left = log.entries(ProcessId(2));
  const std::vector<LogEntry> right = log.entries(ProcessId(5));
  ASSERT_EQ(left.size(), 1u);
  ASSERT_EQ(right.size(), 1u);
  EXPECT_EQ(left[0].payload, "a");
  EXPECT_EQ(right[0].payload, "b");
  const std::vector<Divergence> divergences = log.audit();
  EXPECT_TRUE(divergences.empty())
      << divergences.size() << " divergences; first: "
      << divergences.front().detail;
}

// ---- state transfer: the store's merge vs the all-pairs reference ----------
//
// The log's state transfer is app::sync_states over the log's keys and
// stamps; reference::all_pairs_sync is the log's own rule, each member
// pulling every position it lacks from every other in turn.

/// Stores `entry` in `state` under its position's key and stamp.
void store_entry(KvState& state, const LogEntry& entry) {
  state.own.emplace(position_key(entry.position),
                    VersionedValue{entry.payload,
                                   position_stamp(entry.position),
                                   entry.epoch_members});
}

/// The store state holding `log`.
KvState as_state(const std::vector<LogEntry>& log) {
  KvState state;
  for (const LogEntry& entry : log) store_entry(state, entry);
  return state;
}

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

/// Appends new entries to most members, each to both the member's log and
/// its state, at positions in epochs 5-8, which random_logs never mints;
/// two members may hold one new position with different payloads.
void append_fresh(Rng& rng, std::vector<std::vector<LogEntry>>& logs,
                  std::vector<KvState>& states) {
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (rng.next_bool(0.3)) continue;
    const auto count = rng.next_range(1, 6);
    for (std::uint64_t c = 0; c < count; ++c) {
      const LogEntry entry{
          LogPosition{static_cast<SessionNumber>(5 + rng.next_below(4)),
                      rng.next_below(4)},
          "q" + std::to_string(rng.next_below(3)),
          ProcessSet::of({static_cast<std::uint32_t>(rng.next_below(5))})};
      const auto at = std::lower_bound(
          logs[i].begin(), logs[i].end(), entry.position,
          [](const LogEntry& e, const LogPosition& p) {
            return e.position < p;
          });
      if (at != logs[i].end() && at->position == entry.position) continue;
      logs[i].insert(at, entry);
      store_entry(states[i], entry);
    }
  }
}

TEST(LogStateTransfer, LinearMergeMatchesAllPairsOnRandomMembers) {
  // Round one merges fresh states; round two merges the snapshot round
  // one left every member sharing, the entries members kept on ties,
  // and new appends.
  constexpr std::size_t kSizes[] = {1, 2, 3, 17, 64};
  for (std::uint64_t seed = 0; seed < 250; ++seed) {
    Rng rng(seed);
    const std::size_t m = kSizes[seed % std::size(kSizes)];
    auto expected = random_logs(rng, m);
    std::vector<KvState> actual;
    for (const auto& log : expected) actual.push_back(as_state(log));
    for (int round = 0; round < 2; ++round) {
      if (round == 1) append_fresh(rng, expected, actual);
      reference::all_pairs_sync(reference::pointers(expected));
      sync_states(reference::pointers(actual));
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(log_entries(actual[i]), expected[i])
            << "seed " << seed << " round " << round << " member " << i;
      }
    }
  }
}

TEST(LogStateTransfer, MissingPositionsComeFromTheLowestIndexHolder) {
  const ProcessSet none;
  std::vector<KvState> states{
      as_state({}), as_state({LogEntry{{1, 0}, "b", none}}),
      as_state({LogEntry{{1, 0}, "c", none}, LogEntry{{1, 1}, "c", none}})};
  sync_states(reference::pointers(states));
  EXPECT_EQ(log_entries(states[0]),
            (std::vector<LogEntry>{LogEntry{{1, 0}, "b", none},
                                   LogEntry{{1, 1}, "c", none}}));
  EXPECT_EQ(log_entries(states[1]), log_entries(states[0]));
  const std::vector<LogEntry> own = log_entries(states[2]);
  EXPECT_EQ(own[0].payload, "c");  // a member keeps its own entries
  EXPECT_EQ(own[1].payload, "c");
}

/// Checks one sync_primary against the all-pairs reference run within
/// each live primary session; returns the number of sessions.
std::size_t expect_sync_matches_all_pairs(Cluster& cluster,
                                          ReplicatedLog& log) {
  std::vector<std::vector<LogEntry>> expected;
  for (const ProcessId p : cluster.all_processes()) {
    expected.push_back(log.entries(p));
  }
  const std::map<Session, ProcessSet> sessions = cluster.live_primaries();
  for (const auto& [session, members] : sessions) {
    std::vector<std::vector<LogEntry>*> logs;
    for (const ProcessId p : members) logs.push_back(&expected[p.value()]);
    reference::all_pairs_sync(logs);
  }
  log.sync_primary();
  for (const ProcessId p : cluster.all_processes()) {
    EXPECT_EQ(log.entries(p), expected[p.value()]) << to_string(p);
  }
  return sessions.size();
}

TEST(LogStateTransfer, SplitBrainSyncMatchesAllPairsWithinEachSession) {
  // Round one syncs within each of two live "primaries" (NaiveDynamic
  // plus a dropped dv.info); round two, after the sides merge, syncs
  // their snapshots and the new appends in one session.
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
  EXPECT_EQ(expect_sync_matches_all_pairs(cluster, log), 2u);

  cluster.merge();
  cluster.settle();
  for (std::uint32_t p = 0; p < 5; ++p) {
    log.append(ProcessId(p), "n" + std::to_string(p));
  }
  EXPECT_EQ(expect_sync_matches_all_pairs(cluster, log), 1u);
}

}  // namespace
}  // namespace dynvote::app
