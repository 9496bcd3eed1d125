#include "app/replicated_kv.hpp"

#include <algorithm>
#include <utility>

#include "util/ensure.hpp"

namespace dynvote::app {

std::string Version::to_string() const {
  return "v(" + std::to_string(primary_number) + "." +
         std::to_string(sequence) + "@" + dynvote::to_string(writer) + ")";
}

std::optional<Version> Replica::write(const std::string& key,
                                      std::string value) {
  if (!service_.in_primary()) return std::nullopt;
  const Session& session = *service_.primary();
  const Version version{session.number, state_.next_sequence++, process()};
  state_.data[key] = VersionedValue{std::move(value), version, session.members};
  return version;
}

std::optional<std::string> Replica::read(const std::string& key) const {
  auto it = state_.data.find(key);
  if (it == state_.data.end()) return std::nullopt;
  return it->second.value;
}

void sync_states(std::span<KvState* const> members) {
  if (members.size() < 2) return;
  // One lockstep walk: `into` adopts every entry of `from` it lacks or
  // holds at a lower version. Returns one beyond `from`'s largest stamp.
  const auto pull = [](KvState& into, const KvState& from) {
    std::uint64_t past = 0;
    auto it = into.data.begin();
    for (const auto& [key, theirs] : from.data) {
      past = std::max(past, theirs.version.sequence + 1);
      while (it != into.data.end() && it->first < key) ++it;
      if (it == into.data.end() || it->first != key) {
        into.data.emplace_hint(it, key, theirs);
      } else if (it->second.version < theirs.version) {
        it->second = theirs;
      }
    }
    return past;
  };
  // The first member pulls from every other in order, ending with the
  // per-key maximum (a tie keeps the lower index); each other member then
  // pulls from it. Its remaining all-pairs pulls would only have raised its
  // sequence past the untouched data of the members after it.
  KvState& first = *members[0];
  std::vector<std::uint64_t> past(members.size(), 0);
  for (std::size_t i = 1; i < members.size(); ++i) {
    past[i] = pull(first, *members[i]);
  }
  std::uint64_t later = 0;  // one beyond every stamp of members after i
  for (std::size_t i = members.size() - 1; i > 0; --i) {
    KvState& member = *members[i];
    member.next_sequence =
        std::max({member.next_sequence, pull(member, first), later});
    later = std::max(later, past[i]);
  }
  first.next_sequence = std::max(first.next_sequence, later);
}

void find_stamp_conflicts(std::span<const Replica* const> replicas,
                          std::vector<Divergence>& out) {
  for (std::size_t a = 0; a < replicas.size(); ++a) {
    for (std::size_t b = a + 1; b < replicas.size(); ++b) {
      const auto& theirs = replicas[b]->state().data;
      for (const auto& [key, va] : replicas[a]->state().data) {
        const auto it = theirs.find(key);
        if (it == theirs.end()) continue;
        const auto& vb = it->second;
        if (va.version == vb.version && va.value != vb.value) {
          out.push_back({key, replicas[a]->process(), replicas[b]->process(),
                         "version " + va.version.to_string() +
                             " maps to '" + va.value + "' (written in " +
                             va.written_in.to_string() + ") and '" + vb.value +
                             "' (written in " + vb.written_in.to_string() +
                             ")"});
        }
      }
    }
  }
}

KvStore::KvStore(Cluster& cluster) : cluster_(cluster) {
  for (ProcessId p : cluster_.all_processes()) {
    replicas_.emplace(p, std::make_unique<Replica>(cluster_.service(p)));
  }
}

Replica& KvStore::replica(ProcessId p) {
  return const_cast<Replica&>(std::as_const(*this).replica(p));
}

const Replica& KvStore::replica(ProcessId p) const {
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
  std::map<Session, std::vector<KvState*>> groups;
  for (auto& [p, replica] : replicas_) {
    if (!cluster_.sim().network().alive(p) || !replica->in_primary()) continue;
    groups[*replica->service_.primary()].push_back(&replica->state_);
  }
  for (auto& [session, members] : groups) sync_states(members);
}

std::vector<Divergence> KvStore::audit() const {
  std::vector<Divergence> out;

  // (a) Same version stamp, different values, at two replicas of a group.
  std::vector<std::vector<const Replica*>> groups(cluster_.num_groups());
  for (const auto& [p, replica] : replicas_) {
    groups[cluster_.group_of(p)].push_back(replica.get());
  }
  for (const auto& members : groups) find_stamp_conflicts(members, out);

  // (b) A write acknowledged while a disjoint primary of its group was
  // live.
  for (const LoggedWrite& w : log_) {
    for (const Session& other : cluster_.checker(cluster_.group_of(w.replica))
                                    .disjoint_live_at(w.session, w.time)) {
      out.push_back({w.key, w.replica, w.replica,
                     "write " + w.version.to_string() + " acknowledged in " +
                         w.session.to_string() + " while disjoint primary " +
                         other.to_string() + " was live"});
    }
  }
  return out;
}

}  // namespace dynvote::app
