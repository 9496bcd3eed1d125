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
//     every position known inside the component (state transfer), then
//     appends continue in the new epoch;
//   * the correctness the service must deliver: the sequence of epochs
//     along any replica's log is non-decreasing and globally consistent
//     — two replicas never hold different entries at the same (epoch,
//     index) position. With a split brain, two primaries mint entries in
//     incomparable epochs or collide on positions, and the audit reports
//     it.
//
// The log is an app::KvStore keyed by position. An entry's key is its
// position in a fixed width (key order is position order) and its stamp
// is Version{epoch, index} with the writer left at its default. The
// sequencer makes that stamp unique within a primary, so one stamp with
// two contents is two primaries minting one position: the store's
// stamp-conflict audit, per consistency group. Every holder of a key
// holds the same stamp, so the store's tie rule is the log's state
// transfer: a missing position comes from the lowest-index holder, and
// a member keeps its own entry where another holds other content. An
// audit detail renders a stamp as v(epoch.index@p0): p0 is the default
// writer, not the appender, which the Divergence's replica fields name.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "app/replicated_kv.hpp"
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

/// The store key of `position`: both numbers in a fixed width, so the
/// store's key order is position order. Epochs are never negative.
[[nodiscard]] std::string position_key(const LogPosition& position);

/// The stamp of the entry at `position`; the writer stays at its default.
[[nodiscard]] inline Version position_stamp(const LogPosition& position) {
  return Version{position.epoch, position.index, ProcessId()};
}

/// A replica's state read as a log, in position order (the stamp carries
/// each position).
[[nodiscard]] std::vector<LogEntry> log_entries(const KvState& state);

/// The whole replicated log: the store and the epochs' sequencer.
class ReplicatedLog {
 public:
  explicit ReplicatedLog(Cluster& cluster) : store_(cluster) {}

  /// Appends through the replica at `p`; fails (nullopt) outside the
  /// primary.
  std::optional<LogPosition> append(ProcessId p, std::string payload);

  /// Reconciles the members of each live primary component.
  void sync_primary() { store_.sync_primary(); }

  /// The store's audit, within each consistency group:
  ///   (a) two replicas hold different entries at one position;
  ///   (b) an append acknowledged while a disjoint primary of the
  ///       appender's group was live (the split-brain signature).
  [[nodiscard]] std::vector<Divergence> audit() const {
    return store_.audit();
  }

  /// Total appends acknowledged.
  [[nodiscard]] std::uint64_t accepted_appends() const noexcept {
    return store_.accepted_writes();
  }

  /// The log at `p`, in position order.
  [[nodiscard]] std::vector<LogEntry> entries(ProcessId p) const {
    return log_entries(store_.replica(p).state());
  }

 private:
  KvStore store_;
  /// The per-epoch sequencer state: next free index in each epoch.
  std::map<Session, std::uint64_t> epoch_counters_;
};

}  // namespace dynvote::app
