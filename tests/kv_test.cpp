// Integration tests: the replicated key-value store on top of the
// primary-component service — writes gated on primacy, state transfer,
// and application-level split-brain detection.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "app/replicated_kv.hpp"
#include "app_sync_reference.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "util/rng.hpp"

namespace dynvote::app {
namespace {

ClusterOptions options_for(ProtocolKind kind, std::uint64_t seed = 51) {
  ClusterOptions options;
  options.kind = kind;
  options.n = 5;
  options.sim.seed = seed;
  return options;
}

TEST(Version, OrdersByPrimaryThenSequenceThenWriter) {
  EXPECT_LT((Version{1, 5, ProcessId(0)}), (Version{2, 1, ProcessId(0)}));
  EXPECT_LT((Version{2, 1, ProcessId(0)}), (Version{2, 2, ProcessId(0)}));
  EXPECT_LT((Version{2, 2, ProcessId(0)}), (Version{2, 2, ProcessId(1)}));
  EXPECT_EQ((Version{2, 2, ProcessId(3)}), (Version{2, 2, ProcessId(3)}));
  EXPECT_EQ((Version{3, 1, ProcessId(4)}).to_string(), "v(3.1@p4)");
}

TEST(Version, TwoWritersInOnePrimaryNeverCollide) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  KvStore store(cluster);
  const auto v0 = store.write(ProcessId(0), "k", "a");
  const auto v1 = store.write(ProcessId(1), "k", "b");
  ASSERT_TRUE(v0 && v1);
  EXPECT_NE(*v0, *v1);
}

TEST(ReplicatedKv, WritesAcceptedOnlyInPrimary) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  KvStore store(cluster);
  EXPECT_TRUE(store.write(ProcessId(0), "k", "v1").has_value());

  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  EXPECT_TRUE(store.write(ProcessId(0), "k", "v2").has_value());
  EXPECT_FALSE(store.write(ProcessId(3), "k", "minority").has_value());
  EXPECT_EQ(store.accepted_writes(), 2u);
}

TEST(ReplicatedKv, ReadsSeeLocalReplicaState) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  KvStore store(cluster);
  store.write(ProcessId(0), "city", "jerusalem");
  EXPECT_EQ(store.replica(ProcessId(0)).read("city"), "jerusalem");
  EXPECT_EQ(store.replica(ProcessId(1)).read("city"), std::nullopt);
  store.sync_primary();
  EXPECT_EQ(store.replica(ProcessId(1)).read("city"), "jerusalem");
}

TEST(ReplicatedKv, SyncConvergesToHighestVersion) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  KvStore store(cluster);
  store.write(ProcessId(0), "k", "old");
  store.sync_primary();
  store.write(ProcessId(1), "k", "new");
  store.sync_primary();
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(store.replica(ProcessId(p)).read("k"), "new") << "p" << p;
  }
}

TEST(ReplicatedKv, PartitionedMinorityKeepsStaleDataWithoutConflict) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  cluster.start();
  KvStore store(cluster);
  store.write(ProcessId(0), "k", "v1");
  store.sync_primary();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  store.write(ProcessId(0), "k", "v2");
  store.sync_primary();
  EXPECT_EQ(store.replica(ProcessId(3)).read("k"), "v1");  // stale, fine
  EXPECT_TRUE(store.audit().empty());
  cluster.merge();
  cluster.settle();
  store.sync_primary();
  EXPECT_EQ(store.replica(ProcessId(3)).read("k"), "v2");
  EXPECT_TRUE(store.audit().empty());
}

TEST(ReplicatedKv, ConsistentProtocolNeverDivergesUnderChurn) {
  Cluster cluster(options_for(ProtocolKind::kOptimized, 53));
  cluster.start();
  KvStore store(cluster);
  int seq = 0;
  auto write_everywhere = [&] {
    for (std::uint32_t p = 0; p < 5; ++p) {
      store.write(ProcessId(p), "key" + std::to_string(p % 2),
                  "val" + std::to_string(seq++));
    }
    store.sync_primary();
  };
  write_everywhere();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  write_everywhere();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  write_everywhere();
  cluster.merge();
  cluster.settle();
  write_everywhere();
  EXPECT_TRUE(store.audit().empty());
  EXPECT_GT(store.accepted_writes(), 0u);
}

TEST(ReplicatedKv, NaiveProtocolProducesApplicationVisibleSplitBrain) {
  // The paper's section-1 scenario at the application level: both sides
  // accept writes, and the audit catches the conflict.
  Cluster cluster(options_for(ProtocolKind::kNaiveDynamic));
  KvStore store(cluster);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.info", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();

  // Both components are "the primary" and both acknowledge writes.
  ASSERT_TRUE(store.write(ProcessId(0), "balance", "100").has_value());
  ASSERT_TRUE(store.write(ProcessId(2), "balance", "999").has_value());
  const auto divergences = store.audit();
  EXPECT_FALSE(divergences.empty());
}

TEST(ReplicatedKv, SameScenarioWithOurProtocolStaysClean) {
  Cluster cluster(options_for(ProtocolKind::kOptimized));
  KvStore store(cluster);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();

  ASSERT_TRUE(store.write(ProcessId(0), "balance", "100").has_value());
  EXPECT_FALSE(store.write(ProcessId(2), "balance", "999").has_value());
  EXPECT_TRUE(store.audit().empty());
}

// ---- state transfer: linear merge vs the all-pairs reference ---------------

/// m random replica states over a small key and version space, so members
/// share keys, hold equal stamps (sometimes with different values, which
/// pins the tie rule) and sometimes hold nothing or a key of their own.
std::vector<KvState> random_states(Rng& rng, std::size_t m) {
  std::vector<KvState> states(m);
  for (std::size_t i = 0; i < m; ++i) {
    KvState& state = states[i];
    state.next_sequence = rng.next_range(1, 40);
    if (rng.next_bool(0.15)) continue;  // an empty replica
    const auto writes = rng.next_range(1, 24);
    for (std::uint64_t w = 0; w < writes; ++w) {
      const Version version{static_cast<SessionNumber>(rng.next_below(4)),
                            rng.next_range(1, 40),
                            ProcessId(static_cast<std::uint32_t>(
                                rng.next_below(3)))};
      state.data["k" + std::to_string(rng.next_below(32))] = VersionedValue{
          "v" + std::to_string(rng.next_below(3)), version,
          ProcessSet::of({static_cast<std::uint32_t>(rng.next_below(5))})};
    }
    if (rng.next_bool(0.5)) {  // a key no other member holds
      state.data["solo" + std::to_string(i)] = VersionedValue{
          "s", Version{0, rng.next_range(1, 60), ProcessId(0)}, {}};
    }
  }
  return states;
}

void expect_same_states(const std::vector<KvState>& actual,
                        const std::vector<KvState>& expected,
                        const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].next_sequence, expected[i].next_sequence)
        << context << " member " << i;
    EXPECT_TRUE(reference::same_data(actual[i], expected[i]))
        << context << " member " << i;
  }
}

TEST(KvStateTransfer, LinearMergeMatchesAllPairsOnRandomMembers) {
  constexpr std::size_t kSizes[] = {1, 2, 3, 17, 64};
  for (std::uint64_t seed = 0; seed < 250; ++seed) {
    Rng rng(seed);
    const std::size_t m = kSizes[seed % std::size(kSizes)];
    std::vector<KvState> expected = random_states(rng, m);
    std::vector<KvState> actual = expected;
    reference::all_pairs_sync(reference::pointers(expected));
    sync_states(reference::pointers(actual));
    expect_same_states(actual, expected, "seed " + std::to_string(seed));
  }
}

TEST(KvStateTransfer, MergeGivesEveryMemberTheMaximumVersion) {
  std::vector<KvState> states(3);
  states[0].data["a"] = VersionedValue{"old", Version{1, 1, ProcessId(0)}, {}};
  states[1].data["a"] = VersionedValue{"new", Version{2, 1, ProcessId(1)}, {}};
  states[2].data["b"] = VersionedValue{"b", Version{1, 7, ProcessId(2)}, {}};
  sync_states(reference::pointers(states));
  for (const KvState& state : states) {
    ASSERT_EQ(state.data.size(), 2u);
    EXPECT_EQ(state.data.at("a").value, "new");
    EXPECT_EQ(state.data.at("b").value, "b");
    EXPECT_EQ(state.next_sequence, 8u);
  }
}

TEST(KvStateTransfer, SplitBrainSyncMatchesAllPairsWithinEachSession) {
  // Two live "primaries" at once (NaiveDynamic plus a dropped dv.info, as
  // in the split-brain test above): one sync_primary call transfers state
  // within each session separately, members in process order.
  Cluster cluster(options_for(ProtocolKind::kNaiveDynamic));
  KvStore store(cluster);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.info", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  for (std::uint32_t p = 0; p < 3; ++p) {
    store.write(ProcessId(p), "before" + std::to_string(p), "x");
  }
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  for (std::uint32_t p = 0; p < 5; ++p) {
    store.write(ProcessId(p), "shared", "w" + std::to_string(p));
    store.write(ProcessId(p), "own" + std::to_string(p), "y");
  }

  std::vector<KvState> expected;
  std::map<Session, std::vector<KvState*>> sessions;
  expected.reserve(5);
  for (std::uint32_t p = 0; p < 5; ++p) {
    expected.push_back(store.replica(ProcessId(p)).state());
  }
  for (std::uint32_t p = 0; p < 5; ++p) {
    const auto& primary = cluster.service(ProcessId(p)).primary();
    if (primary) sessions[*primary].push_back(&expected[p]);
  }
  ASSERT_EQ(sessions.size(), 2u);
  for (const auto& [session, members] : sessions) {
    reference::all_pairs_sync(members);
  }

  store.sync_primary();
  std::vector<KvState> actual;
  for (std::uint32_t p = 0; p < 5; ++p) {
    actual.push_back(store.replica(ProcessId(p)).state());
  }
  expect_same_states(actual, expected, "split brain");
  EXPECT_NE(actual[0].data.at("shared").value,
            actual[4].data.at("shared").value);
}

}  // namespace
}  // namespace dynvote::app
