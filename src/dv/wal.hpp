// Incremental persistence for protocol state: delta WAL + checkpoints.
//
// The paper (section 4.4) puts stable storage on the critical path of
// every protocol step — each process must write its state change before
// responding to the message that caused it. Snapshot-per-persist makes
// that write O(state) (all n Last_Formed entries with their session
// table, every ambiguous record) even when the step changed one field.
// WalPersistence instead appends one batch of small StateDelta records
// per persist — O(delta) bytes — and compacts the log into a fresh
// versioned checkpoint when it outgrows the last checkpoint by a
// configurable factor, so steady-state write cost stays near-constant
// in n.
//
// Layout (two interned keys of sim::StableStorage):
//   <prefix>       the checkpoint: either a versioned CheckpointRecord
//                  (WAL mode) or a legacy raw ProtocolState snapshot
//                  (snapshot mode / pre-WAL disks) — recovery reads both;
//   <prefix>.wal   the log: batches of (lsn, count, deltas...).
//
// Compaction is two stable writes (checkpoint put, then log truncate);
// a crash in between is safe because the checkpoint names the last LSN
// it covers and recovery skips log batches at or below it.
//
// The durability contract is guarded, not assumed: with cross_check on
// (the default, and required in tests), every commit re-runs recovery
// from the bytes actually on disk and asserts replay(checkpoint, log)
// equals the live state — a mutation that forgot to stage its delta
// fails loudly at the very step that made it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dv/state.hpp"
#include "sim/stable_storage.hpp"
#include "util/codec.hpp"

namespace dynvote::obs {
class Counter;
class MetricsRegistry;
}  // namespace dynvote::obs

namespace dynvote {

enum class PersistenceMode : std::uint8_t {
  /// Re-encode and rewrite the full snapshot on every persist (the
  /// pre-WAL behavior; kept as the bench baseline and fallback).
  kSnapshot,
  /// Append per-step deltas; compact past the threshold.
  kWal,
};

struct PersistenceOptions {
  PersistenceMode mode = PersistenceMode::kWal;

  /// Compact when log bytes exceed
  /// max(min_compact_bytes, compact_factor * last checkpoint bytes).
  /// The factor bounds amortized write cost at
  /// delta * (1 + 1/compact_factor) per step — O(delta), not O(state) —
  /// while keeping recovery replay proportional to one checkpoint.
  std::size_t min_compact_bytes = 1024;
  double compact_factor = 4.0;

  /// Re-derive the state from storage after every commit and assert it
  /// matches (see file header). O(state) reads per persist — disable for
  /// production-speed runs; tests keep it on.
  bool cross_check = true;
};

class WalPersistence {
 public:
  /// `metrics` may be null (unit tests); counters are registered lazily.
  WalPersistence(sim::StableStorage& storage, obs::MetricsRegistry* metrics,
                 std::string_view key_prefix, ProcessId self,
                 PersistenceOptions options);

  [[nodiscard]] const PersistenceOptions& options() const noexcept {
    return options_;
  }

  /// Records one mutation of the running step. No-op in snapshot mode.
  void stage(StateDelta delta);

  /// Persists the step just taken: appends the staged batch (WAL mode;
  /// nothing staged = nothing to write, the state on disk already covers
  /// `state`) or rewrites the snapshot (snapshot mode). Runs the
  /// cross-check when enabled, then compacts if the log tripped the
  /// threshold.
  void commit(const ProtocolState& state);

  /// Full rewrite: fresh checkpoint covering everything, log truncated.
  /// Used at construction (durable from birth) and after disk loss; also
  /// called internally by compaction.
  void checkpoint(const ProtocolState& state);

  /// Reloads state from storage: checkpoint (either format) plus the log
  /// tail beyond it. nullopt = empty disk (paper footnote 4: destroyed).
  /// Resets the staging buffer and LSN bookkeeping.
  [[nodiscard]] std::optional<ProtocolState> recover();

  /// Test hook, invoked between the checkpoint write and the log
  /// truncation — the mid-compaction window a crash can land in.
  void set_before_truncate_hook(std::function<void()> hook) {
    before_truncate_hook_ = std::move(hook);
  }

  /// Persist calls made (WAL appends + elided empty commits + snapshots).
  [[nodiscard]] std::uint64_t persists() const noexcept { return persists_; }

 private:
  [[nodiscard]] std::size_t compact_threshold() const noexcept;
  /// Legacy full-state write (snapshot mode): raw ProtocolState, no
  /// checkpoint framing — byte-identical to the pre-WAL persist path.
  void write_snapshot(const ProtocolState& state);
  /// Decodes checkpoint + log into a fresh state; nullopt on empty disk.
  /// `max_lsn_out` (optional) receives the highest LSN seen.
  [[nodiscard]] std::optional<ProtocolState> replay_storage(
      std::uint64_t* max_lsn_out) const;
  void verify_cross_check(const ProtocolState& state) const;

  sim::StableStorage& storage_;
  PersistenceOptions options_;
  ProcessId self_;
  sim::StableStorage::KeyId ckpt_key_;
  sim::StableStorage::KeyId wal_key_;
  Encoder scratch_;
  std::vector<StateDelta> pending_;
  std::uint64_t next_lsn_ = 1;
  std::size_t last_checkpoint_bytes_ = 0;
  std::uint64_t persists_ = 0;

  // Registered once at wiring time; null when metrics are absent.
  obs::Counter* wal_appends_ = nullptr;
  obs::Counter* wal_bytes_ = nullptr;
  obs::Counter* checkpoints_ = nullptr;
  obs::Counter* checkpoint_bytes_ = nullptr;
  obs::Counter* snapshots_ = nullptr;
  obs::Counter* snapshot_bytes_ = nullptr;
  obs::Counter* persist_calls_ = nullptr;

  std::function<void()> before_truncate_hook_;
};

}  // namespace dynvote
