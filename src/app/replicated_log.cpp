#include "app/replicated_log.hpp"

#include <algorithm>
#include <iterator>

#include "util/ensure.hpp"

namespace dynvote::app {

std::string LogPosition::to_string() const {
  return "(" + std::to_string(epoch) + ":" + std::to_string(index) + ")";
}

void LogReplica::store(LogEntry entry) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), entry.position,
      [](const LogEntry& e, const LogPosition& p) { return e.position < p; });
  ensure(it == entries_.end() || !(it->position == entry.position),
         "local position collision");
  entries_.insert(it, std::move(entry));
}

void sync_logs(std::span<std::vector<LogEntry>* const> members) {
  if (members.empty()) return;
  // std::set_union takes a position held by both ranges from the first.
  // The first member gathers every position, each from the lowest index
  // holding it; every other member then fills its gaps from the first.
  std::vector<LogEntry> merged;
  const auto pull = [&merged](std::vector<LogEntry>& into,
                              const std::vector<LogEntry>& from) {
    std::set_union(std::make_move_iterator(into.begin()),
                   std::make_move_iterator(into.end()), from.begin(),
                   from.end(), std::back_inserter(merged),
                   [](const LogEntry& a, const LogEntry& b) {
                     return a.position < b.position;
                   });
    into.swap(merged);
    merged.clear();
  };
  for (std::vector<LogEntry>* log : members.subspan(1)) pull(*members[0], *log);
  for (std::vector<LogEntry>* log : members.subspan(1)) pull(*log, *members[0]);
}

ReplicatedLog::ReplicatedLog(Cluster& cluster) : cluster_(cluster) {
  for (ProcessId p : cluster_.all_processes()) {
    replicas_.emplace(p, std::make_unique<LogReplica>(cluster_.service(p)));
  }
}

LogReplica& ReplicatedLog::replica(ProcessId p) {
  auto it = replicas_.find(p);
  if (it == replicas_.end()) {
    invariant_failed("no log replica for " + dynvote::to_string(p));
  }
  return *it->second;
}

std::optional<LogPosition> ReplicatedLog::append(ProcessId p,
                                                 std::string payload) {
  LogReplica& target = replica(p);
  if (!target.in_primary()) return std::nullopt;
  const Session session = *target.service_.primary();
  // The epoch's sequencer assigns the index (driver-level model; see the
  // header note). Two primaries minting the same epoch number would
  // collide here — which is exactly what the audit looks for.
  const LogPosition position{session.number, epoch_counters_[session]++};
  target.store(LogEntry{position, std::move(payload), session.members});
  log_times_.push_back(AppendRecord{cluster_.sim().now(), position, session});
  return position;
}

void ReplicatedLog::sync_primary() {
  std::map<Session, std::vector<std::vector<LogEntry>*>> groups;
  for (auto& [p, replica] : replicas_) {
    if (!cluster_.sim().network().alive(p) || !replica->in_primary()) continue;
    groups[*replica->service_.primary()].push_back(&replica->entries_);
  }
  for (auto& [session, members] : groups) sync_logs(members);
}

std::vector<LogDivergence> ReplicatedLog::audit() const {
  std::vector<LogDivergence> out;

  // (a) Position collisions with different content.
  for (auto a = replicas_.begin(); a != replicas_.end(); ++a) {
    for (auto b = std::next(a); b != replicas_.end(); ++b) {
      const auto& ea = a->second->entries();
      const auto& eb = b->second->entries();
      std::size_t i = 0, j = 0;
      while (i < ea.size() && j < eb.size()) {
        if (ea[i].position < eb[j].position) {
          ++i;
        } else if (eb[j].position < ea[i].position) {
          ++j;
        } else {
          if (ea[i].payload != eb[j].payload) {
            out.push_back({a->first, b->first,
                           "position " + ea[i].position.to_string() +
                               " holds '" + ea[i].payload + "' (epoch of " +
                               ea[i].epoch_members.to_string() + ") vs '" +
                               eb[j].payload + "' (epoch of " +
                               eb[j].epoch_members.to_string() + ")"});
          }
          ++i;
          ++j;
        }
      }
    }
  }

  // (b) Appends acknowledged while a disjoint primary was live.
  const ConsistencyChecker& checker = cluster_.checker();
  for (const AppendRecord& record : log_times_) {
    for (const Session& other : checker.formed_sessions()) {
      if (other == record.session) continue;
      if (other.members.intersects(record.session.members)) continue;
      if (checker.session_live_at(other, record.time)) {
        out.push_back({ProcessId(0), ProcessId(0),
                       "append " + record.position.to_string() +
                           " acknowledged in " + record.session.to_string() +
                           " while disjoint primary " + other.to_string() +
                           " was live"});
      }
    }
  }
  return out;
}

}  // namespace dynvote::app
