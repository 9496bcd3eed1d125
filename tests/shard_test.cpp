// Unit tests: the sharded multi-group service layer (src/shard/) —
// key-range routing, correlated fleet faults, per-group consistency,
// and the sharded KV integration.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "app_sync_reference.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "shard/shard_map.hpp"
#include "shard/sharded_fleet.hpp"
#include "shard/sharded_kv.hpp"
#include "util/ensure.hpp"

namespace dynvote::shard {
namespace {

// ---- ShardMap ---------------------------------------------------------------

TEST(ShardMap, RoutingIsDeterministicAndInRange) {
  const ShardMap map(128);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::uint32_t shard = map.shard_of(key);
    EXPECT_LT(shard, 128u);
    EXPECT_EQ(shard, map.shard_of(key));  // stable
  }
}

TEST(ShardMap, ShardMatchesItsHashRange) {
  const ShardMap map(7);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i);
    const std::uint64_t hash = key_hash64(key);
    const std::uint32_t shard = map.shard_of(key);
    const auto [first, last] = map.range_of(shard);
    EXPECT_GE(hash, first) << key;
    EXPECT_LE(hash, last) << key;
  }
}

TEST(ShardMap, RangesTileTheHashSpace) {
  const ShardMap map(5);
  std::uint64_t expected_first = 0;
  for (std::uint32_t s = 0; s < 5; ++s) {
    const auto [first, last] = map.range_of(s);
    EXPECT_EQ(first, expected_first);
    EXPECT_GE(last, first);
    expected_first = last + 1;
  }
  EXPECT_EQ(map.range_of(4).second, ~std::uint64_t{0});
}

TEST(ShardMap, SpreadsKeysAcrossShards) {
  const ShardMap map(16);
  std::set<std::uint32_t> hit;
  for (int i = 0; i < 400; ++i) hit.insert(map.shard_of("k" + std::to_string(i)));
  // 400 hashed keys over 16 equal ranges: every shard should see some.
  EXPECT_EQ(hit.size(), 16u);
}

// ---- ShardedFleet ----------------------------------------------------------

ShardedFleetOptions small_fleet_options() {
  ShardedFleetOptions options;
  options.num_groups = 6;
  options.group_size = 3;
  options.num_machines = 6;
  options.sim.seed = 5;
  return options;
}

TEST(ShardedFleet, MachinesHostReplicasOfManyGroups) {
  ShardedFleet fleet(small_fleet_options());
  // 6 groups x 3 replicas over 6 machines: every machine hosts replicas
  // of 3 distinct groups — the "process in many groups at once" shape.
  for (std::uint32_t m = 0; m < fleet.num_machines(); ++m) {
    EXPECT_EQ(fleet.machine_replicas(m).size(), 3u);
  }
  // Within one group the hosting machines are distinct.
  for (std::uint32_t g = 0; g < fleet.num_groups(); ++g) {
    std::set<std::uint32_t> machines;
    for (std::uint32_t i = 0; i < fleet.group_size(); ++i) {
      machines.insert(fleet.machine_of(g, i));
    }
    EXPECT_EQ(machines.size(), fleet.group_size());
  }
}

TEST(ShardedFleet, StartFormsAPrimaryInEveryGroup) {
  ShardedFleet fleet(small_fleet_options());
  fleet.start();
  EXPECT_EQ(fleet.groups_with_live_primary(), fleet.num_groups());
  EXPECT_GE(fleet.total_formed_sessions(), std::uint64_t{fleet.num_groups()});
  EXPECT_TRUE(fleet.check_all_groups().empty());
}

TEST(ShardedFleet, ComponentsNeverSpanGroups) {
  ShardedFleet fleet(small_fleet_options());
  fleet.start();
  fleet.partition_fleet({{0, 1, 2}, {3, 4, 5}});
  fleet.settle();
  for (const ProcessSet& component :
       fleet.sim().network().live_components()) {
    bool inside_one_group = false;
    for (std::uint32_t g = 0; g < fleet.num_groups(); ++g) {
      if (component.is_subset_of(fleet.group_members(g))) {
        inside_one_group = true;
        break;
      }
    }
    EXPECT_TRUE(inside_one_group)
        << "component spans groups: " << component.to_string();
  }
}

TEST(ShardedFleet, CorrelatedCutReconfiguresEveryGroupConsistently) {
  ShardedFleet fleet(small_fleet_options());
  fleet.start();
  // Cut machines 0-2 from 3-5: every group has replicas on both sides
  // (rotating placement), so every group reconfigures; a 2-vs-1 split
  // leaves the majority side primary.
  fleet.partition_fleet({{0, 1, 2}, {3, 4, 5}});
  fleet.settle();
  EXPECT_EQ(fleet.groups_with_live_primary(), fleet.num_groups());
  fleet.merge_fleet();
  fleet.settle();
  EXPECT_EQ(fleet.groups_with_live_primary(), fleet.num_groups());
  EXPECT_TRUE(fleet.check_all_groups().empty());
  // Both the cut and the heal opened reconfiguration windows that later
  // formations closed.
  EXPECT_GE(fleet.reconfig_samples().size(), std::size_t{fleet.num_groups()});
  for (const ShardedFleet::ReconfigSample& sample : fleet.reconfig_samples()) {
    EXPECT_GT(sample.latency(), 0u);
  }
}

TEST(ShardedFleet, MachineCrashHitsAllHostedGroups) {
  ShardedFleet fleet(small_fleet_options());
  fleet.start();
  const std::size_t formed_before = fleet.total_formed_sessions();
  fleet.crash_machine(0);
  fleet.settle();
  // Machine 0 hosts one replica of 3 groups; each survivor pair still
  // holds a 2-of-3 quorum and reforms.
  EXPECT_EQ(fleet.groups_with_live_primary(), fleet.num_groups());
  EXPECT_GT(fleet.total_formed_sessions(), formed_before);
  fleet.recover_machine(0);
  fleet.settle();
  EXPECT_EQ(fleet.groups_with_live_primary(), fleet.num_groups());
  EXPECT_TRUE(fleet.check_all_groups().empty());
}

TEST(ShardedFleet, GroupsFailIndependentlyUnderMinorityCuts) {
  // Cut exactly one machine away: each hosted group drops to 2-of-3 (still
  // quorum); the detached singletons must not be primary.
  ShardedFleet fleet(small_fleet_options());
  fleet.start();
  fleet.partition_fleet({{0}, {1, 2, 3, 4, 5}});
  fleet.settle();
  EXPECT_EQ(fleet.groups_with_live_primary(), fleet.num_groups());
  for (const ProcessId p : fleet.machine_replicas(0)) {
    for (std::uint32_t g = 0; g < fleet.num_groups(); ++g) {
      for (std::uint32_t i = 0; i < fleet.group_size(); ++i) {
        if (fleet.replica_id(g, i) == p) {
          EXPECT_FALSE(fleet.protocol(g, i).is_primary());
        }
      }
    }
  }
}

TEST(ShardedFleet, SettleThrowsWhenTheEventBudgetTrips) {
  ShardedFleet fleet(small_fleet_options());
  fleet.start();
  // A self-rescheduling event never lets the queue drain: settle must
  // fail loudly instead of returning with work still pending.
  sim::EventQueue& queue = fleet.sim().queue();
  std::function<void()> forever = [&] { queue.schedule_after(1, forever); };
  queue.schedule_after(1, forever);
  try {
    fleet.settle(100);
    FAIL() << "settle returned with events pending";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("event budget exhausted"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardedFleet, RejectsIncompleteMachinePartitions) {
  ShardedFleet fleet(small_fleet_options());
  fleet.start();
  EXPECT_THROW(fleet.partition_fleet({{0, 1}}), InvariantViolation);
  EXPECT_THROW(fleet.partition_fleet({{0, 1, 2}, {2, 3, 4, 5}}),
               InvariantViolation);
}

// ---- ShardedKv --------------------------------------------------------------

TEST(ShardedKv, RoutesWritesToTheKeyRangeGroup) {
  ShardedFleet fleet(small_fleet_options());
  ShardedKv kv(fleet);
  fleet.start();
  const std::string key = "routed-key";
  const std::uint32_t group = kv.group_of(key);
  ASSERT_TRUE(kv.write(key, "value").has_value());
  // Exactly one replica — in the routed group — holds the key.
  for (std::uint32_t g = 0; g < fleet.num_groups(); ++g) {
    bool held = false;
    for (std::uint32_t i = 0; i < fleet.group_size(); ++i) {
      held |= kv.replica(g, i).read(key).has_value();
    }
    EXPECT_EQ(held, g == group) << "group " << g;
  }
  EXPECT_EQ(kv.read(key), "value");
}

TEST(ShardedKv, WritesSurviveCorrelatedFaultsWithoutDivergence) {
  ShardedFleet fleet(small_fleet_options());
  ShardedKv kv(fleet);
  fleet.start();
  for (int i = 0; i < 30; ++i) {
    kv.write("k" + std::to_string(i), "before");
  }
  fleet.partition_fleet({{0, 1, 2}, {3, 4, 5}});
  fleet.settle();
  for (int i = 0; i < 30; ++i) {
    kv.write("k" + std::to_string(i), "during");
  }
  fleet.merge_fleet();
  fleet.settle();
  kv.sync_primaries();
  EXPECT_TRUE(kv.audit().empty());
  EXPECT_GT(kv.accepted_writes(), 0u);
  // Every key accepted during the cut reads back as the newest value
  // after the heal and state transfer.
  for (int i = 0; i < 30; ++i) {
    const auto value = kv.read("k" + std::to_string(i));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, "during");
  }
}

TEST(ShardedKv, WritesToPrimarylessShardsAreRejectedNotMisrouted) {
  ShardedFleetOptions options = small_fleet_options();
  ShardedFleet fleet(options);
  ShardedKv kv(fleet);
  fleet.start();
  // Shatter the fleet: every machine alone. Groups of size 3 with
  // min_quorum 1 keep no majority anywhere -> no shard has a primary.
  fleet.partition_fleet({{0}, {1}, {2}, {3}, {4}, {5}});
  fleet.settle();
  EXPECT_EQ(fleet.groups_with_live_primary(), 0u);
  EXPECT_FALSE(kv.write("anything", "x").has_value());
  EXPECT_GT(kv.rejected_writes(), 0u);
  fleet.merge_fleet();
  fleet.settle();
  EXPECT_EQ(fleet.groups_with_live_primary(), fleet.num_groups());
  EXPECT_TRUE(kv.write("anything", "x").has_value());
}

TEST(ShardedKv, StateTransferMatchesAllPairsOverInPrimaryReplicas) {
  // Each group syncs its in_primary() replicas in index order; a replica
  // cut off from its group's primary keeps its state untouched. The
  // second round syncs replicas that hold the first round's snapshots,
  // or older ones, beside their own new writes.
  ShardedFleet fleet(small_fleet_options());
  ShardedKv kv(fleet);
  fleet.start();
  const auto sync_and_compare = [&](const std::string& round) {
    std::vector<std::vector<app::reference::MaterializedKv>> expected(
        fleet.num_groups());
    std::size_t excluded = 0;
    for (std::uint32_t g = 0; g < fleet.num_groups(); ++g) {
      std::vector<app::reference::MaterializedKv*> members;
      expected[g].reserve(fleet.group_size());
      for (std::uint32_t i = 0; i < fleet.group_size(); ++i) {
        expected[g].push_back(
            app::reference::materialize(kv.replica(g, i).state()));
        if (kv.replica(g, i).in_primary()) {
          members.push_back(&expected[g].back());
        } else {
          ++excluded;
        }
      }
      app::reference::all_pairs_sync(members);
    }
    EXPECT_GT(excluded, 0u) << round;

    kv.sync_primaries();
    for (std::uint32_t g = 0; g < fleet.num_groups(); ++g) {
      for (std::uint32_t i = 0; i < fleet.group_size(); ++i) {
        const app::reference::MaterializedKv actual =
            app::reference::materialize(kv.replica(g, i).state());
        EXPECT_EQ(actual.next_sequence, expected[g][i].next_sequence)
            << round << " group " << g << " replica " << i;
        EXPECT_TRUE(app::reference::same_data(actual.data, expected[g][i].data))
            << round << " group " << g << " replica " << i;
      }
    }
  };
  for (int i = 0; i < 30; ++i) kv.write("k" + std::to_string(i), "before");
  fleet.partition_fleet({{0}, {1, 2, 3, 4, 5}});
  fleet.settle();
  for (int i = 0; i < 30; i += 2) kv.write("k" + std::to_string(i), "during");
  sync_and_compare("round 1");

  for (int i = 0; i < 30; i += 3) kv.write("k" + std::to_string(i), "after");
  fleet.partition_fleet({{0, 1, 2}, {3, 4, 5}});
  fleet.settle();
  for (int i = 1; i < 30; i += 3) kv.write("k" + std::to_string(i), "cut");
  sync_and_compare("round 2");
}

TEST(ShardedKv, AuditFlagsAWriteAcknowledgedBesideADisjointPrimary) {
  // bench_shards' section-4.5 split, staged in group 0 of a two-group
  // fleet on the INCONSISTENT naive protocol: replica 2 misses the
  // closing infos of the {0,1,2} session, then the cut moves and both
  // {0,1} and {2,3,4} go primary. Group 1 reconfigures normally.
  ShardedFleetOptions options;
  options.num_groups = 2;
  options.group_size = 5;
  options.num_machines = 5;
  options.kind = ProtocolKind::kNaiveDynamic;
  options.sim.seed = 424'242;
  ShardedFleet fleet(options);
  ShardedKv kv(fleet);
  FaultInjector faults(fleet.sim().network());
  fleet.start();
  const int rule = faults.drop_to(ProcessId(2), "dv.info", 2);
  fleet.partition_fleet({{0, 1, 2}, {3, 4}});
  fleet.settle();
  ASSERT_EQ(faults.dropped(rule), 2u);
  faults.clear();
  fleet.partition_fleet({{0, 1}, {2, 3, 4}});
  fleet.settle();
  ASSERT_FALSE(fleet.check_all_groups().empty());

  std::string key_of[2];
  for (int i = 0; key_of[0].empty() || key_of[1].empty(); ++i) {
    const std::string key = "k" + std::to_string(i);
    key_of[kv.group_of(key)] = key;
  }
  // A write to the healthy group leaves the audit empty.
  ASSERT_TRUE(kv.write(key_of[1], "healthy").has_value());
  EXPECT_TRUE(kv.audit().empty());
  // A write to the split group is acknowledged beside a disjoint primary.
  ASSERT_TRUE(kv.write(key_of[0], "split").has_value());
  const std::vector<app::Divergence> divergences = kv.audit();
  ASSERT_EQ(divergences.size(), 1u);
  EXPECT_EQ(divergences[0].key, key_of[0]);
  EXPECT_NE(divergences[0].detail.find("disjoint primary"), std::string::npos)
      << divergences[0].detail;
}

// ---- sweep-pool determinism over fleets ------------------------------------

/// Everything a bench digest would hash for one fleet run.
struct FleetDigest {
  std::uint64_t executed = 0;
  std::uint64_t horizon = 0;
  std::uint64_t formed = 0;
  std::uint64_t accepted = 0;
  std::vector<ShardedFleet::ReconfigSample> reconfigs;

  bool operator==(const FleetDigest&) const = default;
};

FleetDigest run_fleet_cell(std::size_t seed) {
  ShardedFleetOptions options;
  options.num_groups = 8;
  options.group_size = 3;
  options.num_machines = 6;
  options.sim.seed = 300 + seed;
  ShardedFleet fleet(options);
  ShardedKv kv(fleet);
  fleet.start();
  fleet.partition_fleet({{0, 1, 2}, {3, 4, 5}});
  fleet.settle();
  for (int i = 0; i < 10; ++i) kv.write("k" + std::to_string(i), "v");
  fleet.merge_fleet();
  fleet.settle();
  FleetDigest digest;
  digest.executed = fleet.sim().queue().executed();
  digest.horizon = fleet.sim().now();
  digest.formed = fleet.total_formed_sessions();
  digest.accepted = kv.accepted_writes();
  digest.reconfigs = fleet.reconfig_samples();
  return digest;
}

// Named Sweep* so run_experiments.sh's TSan pass picks it up: this is
// the multi-group path running on the real thread pool.
TEST(SweepShards, PooledFleetDigestsMatchSerial) {
  constexpr std::size_t kSeeds = 6;
  const auto serial = sweep_map<FleetDigest>(kSeeds, 1, run_fleet_cell);
  const auto pooled = sweep_map<FleetDigest>(kSeeds, sweep_thread_count(0),
                                             run_fleet_cell);
  EXPECT_EQ(serial, pooled);
  for (const FleetDigest& digest : serial) {
    EXPECT_GT(digest.formed, 0u);
  }
}

}  // namespace
}  // namespace dynvote::shard
