// ShardedKv: the replicated key-value store spread over many groups.
//
// The paper's intended integration (app/replicated_kv) binds one
// primary-copy replica group to one primary-component service; this
// layer runs one such group per key range: a ShardMap routes each key to
// a group of the ShardedFleet, and the group's app::Replica instances
// accept the write iff that group currently has a primary component.
// The replicas, state transfer and audit are one app::KvStore over the
// fleet's Cluster; this class only routes keys.
//
// The guarantee is exactly the per-group one — writes to one key range
// are totally ordered by that range's primary components — and the
// KvStore audit checks it per group: with a consistent protocol no two
// replicas of a group ever hold the same version stamp with different
// values, and no write is acknowledged while a disjoint primary of its
// group is live, no matter how many correlated fleet faults hit all
// groups at once.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "app/replicated_kv.hpp"
#include "shard/shard_map.hpp"
#include "shard/sharded_fleet.hpp"

namespace dynvote::shard {

class ShardedKv {
 public:
  /// One replica per (group, member) of the fleet; routes by a ShardMap
  /// over the fleet's group count. The fleet outlives the store.
  explicit ShardedKv(ShardedFleet& fleet);

  [[nodiscard]] const ShardMap& map() const noexcept { return map_; }

  /// The group (= shard) serving `key`.
  [[nodiscard]] std::uint32_t group_of(const std::string& key) const {
    return map_.shard_of(key);
  }

  /// Writes through the first in-primary replica of the key's group;
  /// nullopt when the group currently has no primary (the shard is
  /// unavailable, not inconsistent).
  std::optional<app::Version> write(const std::string& key, std::string value);

  /// Reads from the first in-primary replica of the key's group.
  [[nodiscard]] std::optional<std::string> read(const std::string& key) const;

  [[nodiscard]] app::Replica& replica(std::uint32_t group,
                                      std::uint32_t index) {
    return store_.replica(fleet_.replica_id(group, index));
  }

  /// State transfer inside every group's current primary component:
  /// member replicas converge to the highest version per key. Call after
  /// the fleet settles on new primaries.
  void sync_primaries() { store_.sync_primary(); }

  /// The KvStore audit, group by group (app::KvStore::audit).
  [[nodiscard]] std::vector<app::Divergence> audit() const {
    return store_.audit();
  }

  [[nodiscard]] std::uint64_t accepted_writes() const noexcept {
    return store_.accepted_writes();
  }
  [[nodiscard]] std::uint64_t rejected_writes() const noexcept {
    return rejected_;
  }

 private:
  /// The first member of `group` whose replica is in the primary.
  [[nodiscard]] std::optional<ProcessId> primary_replica(
      std::uint32_t group) const;

  ShardedFleet& fleet_;
  ShardMap map_;
  app::KvStore store_;
  std::uint64_t rejected_ = 0;
};

}  // namespace dynvote::shard
