#include "app/replicated_kv.hpp"

#include <algorithm>

#include "util/ensure.hpp"

namespace dynvote::app {

std::string Version::to_string() const {
  return "v(" + std::to_string(primary_number) + "." +
         std::to_string(sequence) + "@" + dynvote::to_string(writer) + ")";
}

Replica::Replica(PrimaryComponentService service) : service_(service) {
  service_.set_listener(this);
  primary_ = service_.primary();
}

std::optional<Version> Replica::write(const std::string& key,
                                      std::string value) {
  if (!service_.in_primary()) return std::nullopt;
  const Session& session = *service_.primary();
  const Version version{session.number, next_sequence_++, process()};
  data_[key] = VersionedValue{std::move(value), version, session.members};
  return version;
}

std::optional<std::string> Replica::read(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second.value;
}

void Replica::sync_from(const Replica& donor) {
  for (const auto& [key, theirs] : donor.data_) {
    auto mine = data_.find(key);
    if (mine == data_.end() || mine->second.version < theirs.version) {
      data_[key] = theirs;
    }
    // Later writes at this replica must supersede everything adopted.
    next_sequence_ = std::max(next_sequence_, theirs.version.sequence + 1);
  }
}

void Replica::on_primary_formed(const Session& session) { primary_ = session; }

void Replica::on_primary_lost() { primary_.reset(); }

KvStore::KvStore(Cluster& cluster) : cluster_(cluster) {
  for (ProcessId p : cluster_.all_processes()) {
    replicas_.emplace(p, std::make_unique<Replica>(cluster_.service(p)));
  }
}

Replica& KvStore::replica(ProcessId p) {
  auto it = replicas_.find(p);
  if (it == replicas_.end()) {
    invariant_failed("no replica for " + dynvote::to_string(p));
  }
  return *it->second;
}

std::optional<Version> KvStore::write(ProcessId p, const std::string& key,
                                      std::string value) {
  Replica& target = replica(p);
  auto result = target.write(key, std::move(value));
  if (result) {
    log_.push_back(LoggedWrite{cluster_.sim().now(), key, *result,
                               *target.service_.primary(), p});
  }
  return result;
}

void KvStore::sync_primary() {
  // Collect the members of the (unique) live primary; with a split brain
  // there may be several — synchronize within each separately, exactly
  // as a real deployment would (each side believes it is *the* primary).
  std::map<Session, std::vector<Replica*>> groups;
  for (auto& [p, replica] : replicas_) {
    if (!cluster_.sim().network().alive(p)) continue;
    if (!replica->in_primary()) continue;
    groups[*replica->service_.primary()].push_back(replica.get());
  }
  for (auto& [session, members] : groups) {
    for (Replica* a : members) {
      for (Replica* b : members) {
        if (a != b) a->sync_from(*b);
      }
    }
  }
}

std::vector<Divergence> KvStore::audit() const {
  std::vector<Divergence> out;

  // (a) Same version stamp, different values, at any two replicas.
  for (auto a = replicas_.begin(); a != replicas_.end(); ++a) {
    for (auto b = std::next(a); b != replicas_.end(); ++b) {
      for (const auto& [key, va] : a->second->data()) {
        const auto it = b->second->data().find(key);
        if (it == b->second->data().end()) continue;
        const auto& vb = it->second;
        if (va.version == vb.version && va.value != vb.value) {
          out.push_back({key, a->first, b->first,
                         "version " + va.version.to_string() +
                             " maps to '" + va.value + "' (written in " +
                             va.written_in.to_string() + ") and '" + vb.value +
                             "' (written in " + vb.written_in.to_string() +
                             ")"});
        }
      }
    }
  }

  // (b) A write acknowledged while a disjoint primary component was live.
  const ConsistencyChecker& checker = cluster_.checker();
  for (const LoggedWrite& w : log_) {
    for (const Session& other : checker.formed_sessions()) {
      if (other == w.session) continue;
      if (other.members.intersects(w.session.members)) continue;
      if (checker.session_live_at(other, w.time)) {
        out.push_back(
            {w.key, w.replica, w.replica,
             "write " + w.version.to_string() + " acknowledged in " +
                 w.session.to_string() + " while disjoint primary " +
                 other.to_string() + " was live"});
      }
    }
  }
  return out;
}

}  // namespace dynvote::app
