// ReplicatedKv: a replicated key-value store built on the
// primary-component service — the paper's intended integration (its
// introduction lists replication algorithms [16, 9] as the canonical
// consumers of this service).
//
// Model (one replica per process):
//
//   * a write is accepted only while the local process is in the primary
//     component; the value is stamped (primary session number, local
//     write sequence) — a version that grows along the ≺ order of
//     primary components;
//   * when a new primary forms, the replicas inside it synchronize:
//     every key converges to the highest-versioned value among the
//     members (state transfer). The merged entries become one immutable
//     snapshot that every member shares; a replica then holds only what
//     it writes (or kept on a version tie) on top of it, so the next
//     transfer walks each distinct snapshot once instead of every
//     member's copy;
//   * an auditor compares ALL replicas (both sides of any partition):
//     with a consistent protocol, any two values for one key are
//     version-ordered, so synchronization never loses an acknowledged
//     write to a conflicting one; with the inconsistent baselines, two
//     primaries accept conflicting writes under incomparable versions,
//     and the audit reports divergence.
//
// This deliberately implements *primary-copy replication*, not total
// order broadcast: it exercises exactly the guarantee the paper's
// service provides, nothing stronger.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dv/service.hpp"
#include "harness/cluster.hpp"

namespace dynvote::app {

/// A version stamp: (primary session number, per-primary sequence,
/// writer). Within one primary component the (sequence, writer) pair is
/// unique; across primaries the session number orders stamps exactly
/// when the primaries themselves are ≺-ordered. Two replicas holding the
/// SAME stamp with different values is therefore unambiguous split-brain
/// evidence: two "primaries" minted the same session number.
struct Version {
  SessionNumber primary_number = -1;
  std::uint64_t sequence = 0;
  ProcessId writer;

  friend bool operator==(const Version&, const Version&) = default;
  friend auto operator<=>(const Version&, const Version&) = default;

  [[nodiscard]] std::string to_string() const;
};

struct VersionedValue {
  std::string value;
  Version version;
  /// The primary component's membership when the write was accepted —
  /// used by the audit to explain conflicts.
  ProcessSet written_in;
};

using KvEntries = std::map<std::string, VersionedValue>;

/// A replica's transferable state: its data and its next write sequence.
/// The data is `own` over `snapshot`: a key's entry is the replica's own
/// one if it has one, else the snapshot's.
struct KvState {
  /// What the last sync of this replica agreed on; every member of that
  /// sync holds the same object. Null before the replica's first sync.
  std::shared_ptr<const KvEntries> snapshot;
  /// Entries written since that sync, and those the sync let the replica
  /// keep: an entry whose version tied the winner's with other content.
  KvEntries own;
  std::uint64_t next_sequence = 1;

  /// The entry for `key`, or null.
  [[nodiscard]] const VersionedValue* find(const std::string& key) const;

  /// Calls f(key, entry) for every entry of the data, in key order.
  template <typename F>
  void for_each(F&& f) const {
    auto mine = own.begin();
    if (snapshot) {
      for (const auto& [key, shared] : *snapshot) {
        for (; mine != own.end() && mine->first < key; ++mine) {
          f(mine->first, mine->second);
        }
        if (mine != own.end() && mine->first == key) {
          f(mine->first, mine->second);
          ++mine;
        } else {
          f(key, shared);
        }
      }
    }
    for (; mine != own.end(); ++mine) f(mine->first, mine->second);
  }
};

/// State transfer among one primary component's members, in ascending
/// process order: data and sequences end exactly as if each had pulled from
/// every other in turn (each key at its maximum version). Every member
/// ends holding one shared snapshot of the merged entries. The work is
/// one walk per distinct snapshot and per member without one, plus each
/// member's own entries, plus O(m).
void sync_states(std::span<KvState* const> members);

/// One replica, bound to one process's PrimaryComponentService. Writes
/// go through the KvStore, which logs them for its audit.
class Replica {
 public:
  explicit Replica(PrimaryComponentService service) : service_(service) {}

  [[nodiscard]] std::optional<std::string> read(const std::string& key) const;
  [[nodiscard]] const KvState& state() const noexcept { return state_; }

  [[nodiscard]] bool in_primary() const { return service_.in_primary(); }
  /// The session of this process's primary component, if it is in one.
  [[nodiscard]] const std::optional<Session>& primary() const {
    return service_.primary();
  }
  [[nodiscard]] ProcessId process() const { return service_.process(); }

 private:
  friend class KvStore;
  PrimaryComponentService service_;
  KvState state_;
};

/// A divergence found by the audit: one key, two replicas, two values
/// whose versions are equal-but-different or otherwise conflicting.
struct Divergence {
  std::string key;
  ProcessId replica_a;
  ProcessId replica_b;
  std::string detail;
};

/// Appends to `out` every key two of `replicas` hold at the same version
/// with different values: two primaries minted the same stamp.
void find_stamp_conflicts(std::span<const Replica* const> replicas,
                          std::vector<Divergence>& out);

/// The whole replicated store: one Replica per cluster process, plus the
/// synchronization and audit drivers. Owns the replicas; the cluster
/// outlives the store.
class KvStore {
 public:
  explicit KvStore(Cluster& cluster);

  /// The replica at `p`. A process added to the cluster after the store
  /// was built gets an empty replica here, on first use.
  [[nodiscard]] Replica& replica(ProcessId p);
  [[nodiscard]] const Replica& replica(ProcessId p) const;

  /// Writes through the replica at `p`: stamps the value (p's primary
  /// number, the replica's next sequence, p) and stores it. Fails
  /// (nullopt) outside the primary.
  std::optional<Version> write(ProcessId p, const std::string& key,
                               std::string value);

  /// Stores `value` at `key` in the replica at `p` under `version`, a
  /// stamp the caller minted in p's current primary; the audit checks it
  /// as it checks a write. `p` must be in the primary.
  void store(ProcessId p, const std::string& key, std::string value,
             const Version& version);

  /// State transfer inside each live primary component: every member
  /// replica converges to the highest version per key. Call after the
  /// cluster settles on a new primary.
  void sync_primary();

  /// Audits the execution for application-visible split brain, within
  /// each of the cluster's consistency groups:
  ///
  ///  (a) two replicas of a group hold the same version of a key with
  ///      different values (two primaries minted the same version stamp);
  ///  (b) a write was acknowledged in primary P while a *disjoint*
  ///      primary P' of the writer's group was also live, by that group's
  ///      checker (so P' could acknowledge conflicting writes that state
  ///      transfer will silently overwrite).
  ///
  /// Consistent protocols produce neither, ever.
  [[nodiscard]] std::vector<Divergence> audit() const;

  /// Total writes accepted across all replicas.
  [[nodiscard]] std::uint64_t accepted_writes() const noexcept {
    return static_cast<std::uint64_t>(log_.size());
  }

 private:
  struct LoggedWrite {
    SimTime time;
    std::string key;
    Version version;
    Session session;
    ProcessId replica;
  };

  Cluster& cluster_;
  std::map<ProcessId, std::unique_ptr<Replica>> replicas_;
  std::vector<LoggedWrite> log_;
};

}  // namespace dynvote::app
