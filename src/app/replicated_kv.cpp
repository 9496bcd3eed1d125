#include "app/replicated_kv.hpp"

#include <algorithm>
#include <utility>

#include "util/ensure.hpp"

namespace dynvote::app {

std::string Version::to_string() const {
  return "v(" + std::to_string(primary_number) + "." +
         std::to_string(sequence) + "@" + dynvote::to_string(writer) + ")";
}

const VersionedValue* KvState::find(const std::string& key) const {
  if (const auto it = own.find(key); it != own.end()) return &it->second;
  if (!snapshot) return nullptr;
  const auto it = snapshot->find(key);
  return it == snapshot->end() ? nullptr : &it->second;
}

std::optional<std::string> Replica::read(const std::string& key) const {
  const VersionedValue* entry = state_.find(key);
  if (entry == nullptr) return std::nullopt;
  return entry->value;
}

void sync_states(std::span<KvState* const> members) {
  const std::size_t m = members.size();
  if (m < 2) return;
  // Gather: the first member's data starts `merged`, then each other member
  // in turn offers its data; an offer replaces an entry only at a strictly
  // higher version, so every key ends at its maximum, the lowest-index
  // holder's on a tie. A member offers its own entries and, of its
  // snapshot, only the entries no earlier member holding that snapshot
  // offered (because each of them overrode it): every distinct snapshot is
  // walked once.
  auto result = std::make_shared<KvEntries>();
  KvEntries& merged = *result;
  // Offers one entry. `at` only moves up during one pass over ascending
  // keys: a few steps, else a lookup, so a dense pass is a lockstep walk
  // and a sparse one costs O(log k) per entry. Returns the entry the offer
  // tied with other content, or merged.end().
  const auto offer = [&merged](KvEntries::iterator& at, const std::string& key,
                               const VersionedValue& theirs) {
    int order = 1;  // at's key against `key`
    for (int steps = 0;
         at != merged.end() && (order = at->first.compare(key)) < 0; ++at) {
      if (++steps > 8) {
        at = merged.lower_bound(key);
        order = at == merged.end() ? 1 : at->first.compare(key);
        break;
      }
    }
    if (order != 0) {
      merged.emplace_hint(at, key, theirs);
      return merged.end();
    }
    const auto held = at++;
    const auto newer = held->second.version <=> theirs.version;
    if (newer < 0) held->second = theirs;
    const bool tie = newer == 0 && (held->second.value != theirs.value ||
                                    held->second.written_in != theirs.written_in);
    return tie ? held : merged.end();
  };
  struct Shared {
    const KvEntries* entries;
    std::vector<KvEntries::const_iterator> unoffered = {};
    std::uint64_t past = 0;              // one beyond its largest sequence
    KvEntries::const_iterator top = {};  // an entry at that sequence
  };
  std::vector<Shared> shared;
  // An offer that tied `merged`'s entry with other content. Unless a higher
  // version replaces that entry, the member keeps its own; for a snapshot
  // entry, so does every later member holding that snapshot entry.
  struct Tie {
    std::size_t member;
    bool from_snapshot;
    KvEntries::const_iterator won;
    const KvEntries::value_type* entry;
  };
  std::vector<Tie> ties;
  std::vector<std::uint64_t> past(m, 0);  // one beyond member i's sequences
  for (std::size_t i = 0; i < m; ++i) {
    KvState& member = *members[i];
    if (i == 0 && !member.snapshot) {
      merged = std::move(member.own);
      continue;
    }
    const KvEntries& own = member.own;
    std::uint64_t own_past = 0;
    auto at = merged.begin();
    for (const auto& entry : own) {
      own_past = std::max(own_past, entry.second.version.sequence + 1);
      if (const auto won = offer(at, entry.first, entry.second);
          won != merged.end()) {
        ties.push_back(Tie{i, false, won, &entry});
      }
    }
    past[i] = own_past;
    if (!member.snapshot) continue;

    auto group = std::find_if(shared.begin(), shared.end(), [&](const Shared& g) {
      return g.entries == member.snapshot.get();
    });
    const bool first = group == shared.end();
    if (first) group = shared.insert(group, Shared{member.snapshot.get()});
    std::vector<KvEntries::const_iterator> overridden;
    auto mine = own.begin();
    at = merged.begin();
    const auto offer_shared = [&](KvEntries::const_iterator s) {
      while (mine != own.end() && mine->first < s->first) ++mine;
      if (mine != own.end() && mine->first == s->first) {
        overridden.push_back(s);
      } else if (const auto won = offer(at, s->first, s->second);
                 won != merged.end()) {
        ties.push_back(Tie{i, true, won, &*s});
      }
    };
    if (first) {
      for (auto s = group->entries->begin(); s != group->entries->end(); ++s) {
        if (s->second.version.sequence >= group->past) {
          group->past = s->second.version.sequence + 1;
          group->top = s;
        }
        offer_shared(s);
      }
    } else {
      for (const auto s : group->unoffered) offer_shared(s);
    }
    group->unoffered = std::move(overridden);
    // The snapshot's largest sequence counts unless this member overrode
    // the entry holding it; then only a walk tells what is left.
    if (own_past >= group->past || !own.contains(group->top->first)) {
      past[i] = std::max(own_past, group->past);
      continue;
    }
    member.for_each([&](const std::string&, const VersionedValue& entry) {
      past[i] = std::max(past[i], entry.version.sequence + 1);
    });
  }

  // Every member now holds the merged snapshot plus the entries it keeps
  // (the first member keeps none: it offered first, so it won every tie).
  std::vector<std::pair<std::size_t, KvEntries::value_type>> kept;
  for (const Tie& tie : ties) {
    if (tie.won->second.version != tie.entry->second.version) continue;
    if (!tie.from_snapshot) {
      kept.emplace_back(tie.member, *tie.entry);
      continue;
    }
    const KvEntries* snapshot = members[tie.member]->snapshot.get();
    for (std::size_t j = tie.member; j < m; ++j) {
      if (members[j]->snapshot.get() == snapshot &&
          !members[j]->own.contains(tie.entry->first)) {
        kept.emplace_back(j, *tie.entry);
      }
    }
  }
  for (KvState* member : members) member->own.clear();
  for (auto& [j, entry] : kept) members[j]->own.insert(std::move(entry));
  // Member i's sequence passes every stamp it would have pulled: the
  // merged ones (except for the first member, which pulls only the
  // others' originals) and the original data of every member after it.
  std::uint64_t merged_past = 0;
  for (const auto& [key, entry] : merged) {
    merged_past = std::max(merged_past, entry.version.sequence + 1);
  }
  const std::shared_ptr<const KvEntries> snapshot = std::move(result);
  std::uint64_t later = 0;  // one beyond every stamp of members after i
  for (std::size_t i = m; i-- > 0;) {
    KvState& member = *members[i];
    member.snapshot = snapshot;
    member.next_sequence =
        std::max({member.next_sequence, i == 0 ? 0 : merged_past, later});
    later = std::max(later, past[i]);
  }
}

void find_stamp_conflicts(std::span<const Replica* const> replicas,
                          std::vector<Divergence>& out) {
  using Entry = std::pair<const std::string*, const VersionedValue*>;
  std::vector<std::vector<Entry>> data(replicas.size());
  for (std::size_t a = 0; a < replicas.size(); ++a) {
    replicas[a]->state().for_each(
        [&](const std::string& key, const VersionedValue& entry) {
          data[a].emplace_back(&key, &entry);
        });
  }
  for (std::size_t a = 0; a < replicas.size(); ++a) {
    const KvState& state_a = replicas[a]->state();
    for (std::size_t b = a + 1; b < replicas.size(); ++b) {
      const KvState& state_b = replicas[b]->state();
      if (state_a.snapshot == state_b.snapshot && state_a.own.empty() &&
          state_b.own.empty()) {
        continue;  // the same data
      }
      auto theirs = data[b].begin();
      for (const auto& [key, va] : data[a]) {
        while (theirs != data[b].end() && *theirs->first < *key) ++theirs;
        if (theirs == data[b].end()) break;
        if (*theirs->first != *key) continue;
        const VersionedValue& vb = *theirs->second;
        if (va->version == vb.version && va->value != vb.value) {
          out.push_back({*key, replicas[a]->process(), replicas[b]->process(),
                         "version " + va->version.to_string() +
                             " maps to '" + va->value + "' (written in " +
                             va->written_in.to_string() + ") and '" +
                             vb.value + "' (written in " +
                             vb.written_in.to_string() + ")"});
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
  auto it = replicas_.find(p);
  if (it == replicas_.end()) {
    it = replicas_.emplace(p, std::make_unique<Replica>(cluster_.service(p)))
             .first;
  }
  return *it->second;
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
  const std::optional<Session>& session = target.primary();
  if (!session) return std::nullopt;
  const Version version{session->number, target.state_.next_sequence++, p};
  store(p, key, std::move(value), version);
  return version;
}

void KvStore::store(ProcessId p, const std::string& key, std::string value,
                    const Version& version) {
  Replica& target = replica(p);
  ensure(target.in_primary(), "store outside the primary");
  const Session& session = *target.primary();
  target.state_.own.insert_or_assign(
      key, VersionedValue{std::move(value), version, session.members});
  log_.push_back(LoggedWrite{cluster_.sim().now(), key, version, session, p});
}

void KvStore::sync_primary() {
  // With a split brain there may be several live primaries: synchronize
  // within each separately, exactly as a real deployment would (each
  // side believes it is *the* primary).
  std::vector<KvState*> members;
  for (const auto& [session, processes] : cluster_.live_primaries()) {
    members.clear();
    for (const ProcessId p : processes) members.push_back(&replica(p).state_);
    sync_states(members);
  }
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
