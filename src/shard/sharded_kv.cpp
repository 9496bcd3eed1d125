#include "shard/sharded_kv.hpp"

#include "util/ensure.hpp"

namespace dynvote::shard {

ShardedKv::ShardedKv(ShardedFleet& fleet)
    : fleet_(fleet), map_(fleet.num_groups()) {
  replicas_.resize(fleet_.num_groups());
  for (std::uint32_t g = 0; g < fleet_.num_groups(); ++g) {
    replicas_[g].reserve(fleet_.group_size());
    for (std::uint32_t i = 0; i < fleet_.group_size(); ++i) {
      replicas_[g].push_back(
          std::make_unique<app::Replica>(fleet_.service(g, i)));
    }
  }
}

app::Replica* ShardedKv::primary_replica(std::uint32_t group) const {
  for (const auto& replica : replicas_[group]) {
    if (replica->in_primary()) return replica.get();
  }
  return nullptr;
}

std::optional<app::Version> ShardedKv::write(const std::string& key,
                                             std::string value) {
  app::Replica* replica = primary_replica(group_of(key));
  if (replica == nullptr) {
    ++rejected_;
    return std::nullopt;
  }
  auto version = replica->write(key, std::move(value));
  if (version) ++accepted_;
  return version;
}

std::optional<std::string> ShardedKv::read(const std::string& key) const {
  const app::Replica* replica = primary_replica(group_of(key));
  if (replica == nullptr) return std::nullopt;
  return replica->read(key);
}

app::Replica& ShardedKv::replica(std::uint32_t group, std::uint32_t index) {
  ensure(group < replicas_.size() && index < replicas_[group].size(),
         "replica out of range");
  return *replicas_[group][index];
}

void ShardedKv::sync_primaries() {
  for (auto& group : replicas_) {
    std::vector<app::KvState*> members;
    for (auto& replica : group) {
      if (replica->in_primary()) members.push_back(&replica->state_);
    }
    app::sync_states(members);
  }
}

std::vector<app::Divergence> ShardedKv::audit() const {
  std::vector<app::Divergence> out;
  for (const auto& group : replicas_) {
    std::vector<const app::Replica*> members;
    for (const auto& replica : group) members.push_back(replica.get());
    app::find_stamp_conflicts(members, out);
  }
  return out;
}

}  // namespace dynvote::shard
