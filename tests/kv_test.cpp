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
  // A consistent run never ties two stamps with different values, so
  // after each sync every in-primary replica holds the same snapshot
  // object and nothing of its own.
  auto write_everywhere = [&] {
    for (std::uint32_t p = 0; p < 5; ++p) {
      store.write(ProcessId(p), "key" + std::to_string(p % 2),
                  "val" + std::to_string(seq++));
    }
    store.sync_primary();
    const KvEntries* shared = nullptr;
    for (std::uint32_t p = 0; p < 5; ++p) {
      const KvState& state = store.replica(ProcessId(p)).state();
      if (!store.replica(ProcessId(p)).in_primary()) continue;
      if (shared == nullptr) shared = state.snapshot.get();
      EXPECT_NE(state.snapshot, nullptr) << "p" << p;
      EXPECT_EQ(state.snapshot.get(), shared) << "p" << p;
      EXPECT_TRUE(state.own.empty()) << "p" << p;
    }
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
      state.own["k" + std::to_string(rng.next_below(32))] = VersionedValue{
          "v" + std::to_string(rng.next_below(3)), version,
          ProcessSet::of({static_cast<std::uint32_t>(rng.next_below(5))})};
    }
    if (rng.next_bool(0.5)) {  // a key no other member holds
      state.own["solo" + std::to_string(i)] = VersionedValue{
          "s", Version{0, rng.next_range(1, 60), ProcessId(0)}, {}};
    }
  }
  return states;
}

std::vector<reference::MaterializedKv> materialize_all(
    const std::vector<KvState>& states) {
  std::vector<reference::MaterializedKv> out;
  out.reserve(states.size());
  for (const KvState& state : states) out.push_back(reference::materialize(state));
  return out;
}

/// The members (by index) of `actual` whose data or next sequence differ
/// from `expected`.
std::vector<std::size_t> mismatched(
    const std::vector<KvState>& actual,
    const std::vector<reference::MaterializedKv>& expected) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const reference::MaterializedKv mine = reference::materialize(actual[i]);
    if (mine.next_sequence != expected[i].next_sequence ||
        !reference::same_data(mine.data, expected[i].data)) {
      out.push_back(i);
    }
  }
  return out;
}

TEST(KvStateTransfer, LinearMergeMatchesAllPairsOnRandomMembers) {
  constexpr std::size_t kSizes[] = {1, 2, 3, 17, 64};
  for (std::uint64_t seed = 0; seed < 250; ++seed) {
    Rng rng(seed);
    const std::size_t m = kSizes[seed % std::size(kSizes)];
    std::vector<KvState> actual = random_states(rng, m);
    std::vector<reference::MaterializedKv> expected = materialize_all(actual);
    reference::all_pairs_sync(reference::pointers(expected));
    sync_states(reference::pointers(actual));
    EXPECT_EQ(mismatched(actual, expected), std::vector<std::size_t>{})
        << "seed " << seed;
  }
}

TEST(KvStateTransfer, SharedSnapshotsMatchAllPairsOverRounds) {
  // Rounds of writes and syncs over one set of replicas, so members hold
  // snapshots from earlier syncs: several different ones, or none. Each
  // round writes own entries at arbitrary versions (below the held
  // entry's, equal to some replica's stamp with maybe another value, or
  // anything), often over the entry with the replica's largest sequence,
  // and then syncs a random ascending subset.
  constexpr std::size_t kSizes[] = {2, 3, 5, 17, 64};
  constexpr int kRounds = 8;
  std::size_t bad_rounds = 0;
  std::string first_bad;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed);
    const std::size_t m = kSizes[seed % std::size(kSizes)];
    std::vector<KvState> states = random_states(rng, m);
    for (int round = 0; round < kRounds; ++round) {
      for (KvState& state : states) {
        if (!rng.next_bool(0.3)) continue;
        const auto writes = rng.next_range(1, 6);
        for (std::uint64_t w = 0; w < writes; ++w) {
          std::string key = "k" + std::to_string(rng.next_below(32));
          if (rng.next_bool(0.25)) {
            std::uint64_t largest = 0;
            state.for_each([&](const std::string& k, const VersionedValue& e) {
              if (e.version.sequence > largest) {
                largest = e.version.sequence;
                key = k;
              }
            });
          }
          Version version{static_cast<SessionNumber>(rng.next_below(6)),
                          rng.next_range(1, 60),
                          ProcessId(static_cast<std::uint32_t>(
                              rng.next_below(3)))};
          const VersionedValue* held =
              states[rng.next_below(m)].find(key);  // any replica's entry
          const double kind = rng.next_double();
          if (held != nullptr && kind < 0.4) {
            version = held->version;  // an equal stamp
          } else if (held != nullptr && kind < 0.7) {
            version = held->version;  // below it
            if (version.sequence > 1) {
              --version.sequence;
            } else {
              --version.primary_number;
            }
          }
          state.own.insert_or_assign(
              key,
              VersionedValue{
                  "v" + std::to_string(rng.next_below(3)), version,
                  ProcessSet::of(
                      {static_cast<std::uint32_t>(rng.next_below(2))})});
        }
      }
      std::vector<KvState*> members;
      std::vector<reference::MaterializedKv> expected = materialize_all(states);
      std::vector<reference::MaterializedKv*> expected_members;
      for (std::size_t i = 0; i < m; ++i) {
        if (!rng.next_bool(0.6)) continue;
        members.push_back(&states[i]);
        expected_members.push_back(&expected[i]);
      }
      reference::all_pairs_sync(expected_members);
      sync_states(members);
      const std::vector<std::size_t> bad = mismatched(states, expected);
      bad_rounds += bad.size();
      if (!bad.empty() && first_bad.empty()) {
        first_bad = "seed " + std::to_string(seed) + " round " +
                    std::to_string(round) + " replica " +
                    std::to_string(bad.front());
      }
    }
  }
  EXPECT_EQ(bad_rounds, 0u) << "mismatching replica-rounds; first: "
                            << first_bad;
}

TEST(KvStateTransfer, MergeGivesEveryMemberTheMaximumVersion) {
  std::vector<KvState> states(3);
  states[0].own["a"] = VersionedValue{"old", Version{1, 1, ProcessId(0)}, {}};
  states[1].own["a"] = VersionedValue{"new", Version{2, 1, ProcessId(1)}, {}};
  states[2].own["b"] = VersionedValue{"b", Version{1, 7, ProcessId(2)}, {}};
  sync_states(reference::pointers(states));
  for (const KvState& state : states) {
    const reference::MaterializedKv data = reference::materialize(state);
    ASSERT_EQ(data.data.size(), 2u);
    EXPECT_EQ(data.data.at("a").value, "new");
    EXPECT_EQ(data.data.at("b").value, "b");
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

  std::vector<KvState> actual;
  for (std::uint32_t p = 0; p < 5; ++p) {
    actual.push_back(store.replica(ProcessId(p)).state());
  }
  std::vector<reference::MaterializedKv> expected = materialize_all(actual);
  std::map<Session, std::vector<reference::MaterializedKv*>> sessions;
  for (std::uint32_t p = 0; p < 5; ++p) {
    const auto& primary = cluster.service(ProcessId(p)).primary();
    if (primary) sessions[*primary].push_back(&expected[p]);
  }
  ASSERT_EQ(sessions.size(), 2u);
  for (const auto& [session, members] : sessions) {
    reference::all_pairs_sync(members);
  }

  store.sync_primary();
  for (std::uint32_t p = 0; p < 5; ++p) {
    actual[p] = store.replica(ProcessId(p)).state();
  }
  EXPECT_EQ(mismatched(actual, expected), std::vector<std::size_t>{});
  EXPECT_NE(actual[0].find("shared")->value, actual[4].find("shared")->value);
}

}  // namespace
}  // namespace dynvote::app
