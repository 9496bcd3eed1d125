#include "shard/sharded_kv.hpp"

#include <utility>

namespace dynvote::shard {

ShardedKv::ShardedKv(ShardedFleet& fleet)
    : fleet_(fleet), map_(fleet.num_groups()), store_(fleet.cluster()) {}

std::optional<ProcessId> ShardedKv::primary_replica(std::uint32_t group) const {
  for (const ProcessId p : fleet_.group_members(group)) {
    if (store_.replica(p).in_primary()) return p;
  }
  return std::nullopt;
}

std::optional<app::Version> ShardedKv::write(const std::string& key,
                                             std::string value) {
  const std::optional<ProcessId> p = primary_replica(group_of(key));
  if (!p) {
    ++rejected_;
    return std::nullopt;
  }
  return store_.write(*p, key, std::move(value));
}

std::optional<std::string> ShardedKv::read(const std::string& key) const {
  const std::optional<ProcessId> p = primary_replica(group_of(key));
  if (!p) return std::nullopt;
  return store_.replica(*p).read(key);
}

}  // namespace dynvote::shard
