// ReplicatedLog: a totally-ordered append-only log on the
// primary-component service — the group-communication use case the
// paper cites (message ordering in dynamic networks [16], the ISIS
// toolkit [5]).
//
// Model (one log replica per process):
//
//   * appends are accepted only while the local process is in the
//     primary component; an entry is stamped with its *epoch* (the
//     primary's session number) and its index within that epoch — the
//     index is assigned by the epoch's sequencer, which this driver
//     models as an instant per-epoch counter (a real deployment runs the
//     sequencer on a primary member, e.g. its lowest-ranked process);
//   * when a new primary forms, its members reconcile: everyone adopts
//     the longest prefix known inside the component, epoch by epoch
//     (state transfer), then appends continue in the new epoch;
//   * the correctness the service must deliver: the sequence of epochs
//     along any replica's log is non-decreasing and globally consistent
//     — two replicas never hold different entries at the same (epoch,
//     index) position. With a split brain, two primaries mint entries in
//     incomparable epochs or collide on positions, and the audit reports
//     it.
//
// Entries live at the driver level (like KvStore): the protocol under
// test provides exactly the primary-component guarantee, and this layer
// shows what a replication service builds from it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dv/service.hpp"
#include "harness/cluster.hpp"

namespace dynvote::app {

/// A position in the global order: epochs are primary session numbers,
/// indexes count appends within one epoch.
struct LogPosition {
  SessionNumber epoch = -1;
  std::uint64_t index = 0;

  friend bool operator==(const LogPosition&, const LogPosition&) = default;
  friend auto operator<=>(const LogPosition&, const LogPosition&) = default;

  [[nodiscard]] std::string to_string() const;
};

struct LogEntry {
  LogPosition position;
  std::string payload;
  ProcessSet epoch_members;  // the primary that accepted it (for audits)

  friend bool operator==(const LogEntry&, const LogEntry&) = default;
};

/// State transfer among one primary component's logs, in ascending process
/// order: each keeps its own entries (a clash is the audit's business) and
/// fills each missing position from the lowest-index holder, in O(m·k).
void sync_logs(std::span<std::vector<LogEntry>* const> members);

/// One process's log replica.
class LogReplica {
 public:
  explicit LogReplica(PrimaryComponentService service) : service_(service) {}

  [[nodiscard]] const std::vector<LogEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool in_primary() const { return service_.in_primary(); }
  [[nodiscard]] ProcessId process() const { return service_.process(); }

 private:
  friend class ReplicatedLog;

  /// Stores a sequencer-stamped entry locally.
  void store(LogEntry entry);

  PrimaryComponentService service_;
  std::vector<LogEntry> entries_;  // sorted by position
};

struct LogDivergence {
  ProcessId replica_a;
  ProcessId replica_b;
  std::string detail;
};

/// The whole replicated log: one LogReplica per cluster process.
class ReplicatedLog {
 public:
  explicit ReplicatedLog(Cluster& cluster);

  [[nodiscard]] LogReplica& replica(ProcessId p);

  /// Appends through the replica at `p`.
  std::optional<LogPosition> append(ProcessId p, std::string payload);

  /// Reconciles the members of the current primary component.
  void sync_primary();

  /// Pairwise audit:
  ///   (a) two replicas disagree on the entry at one position;
  ///   (b) two entries appended at overlapping times by disjoint
  ///       primaries (the split-brain signature, via the checker).
  [[nodiscard]] std::vector<LogDivergence> audit() const;

  /// Total appends acknowledged.
  [[nodiscard]] std::uint64_t accepted_appends() const noexcept {
    return static_cast<std::uint64_t>(log_times_.size());
  }

 private:
  Cluster& cluster_;
  std::map<ProcessId, std::unique_ptr<LogReplica>> replicas_;
  /// The per-epoch sequencer state: next free index in each epoch.
  std::map<Session, std::uint64_t> epoch_counters_;
  struct AppendRecord {
    SimTime time;
    LogPosition position;
    Session session;
  };
  std::vector<AppendRecord> log_times_;
};

}  // namespace dynvote::app
