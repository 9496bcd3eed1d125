// Incremental persistence for protocol state: delta WAL + checkpoints.
//
// The paper (section 4.4) puts stable storage on the critical path of
// every protocol step — each process must write its state change before
// responding to the message that caused it. Snapshot-per-persist makes
// that write O(state) (all n Last_Formed entries with their session
// table, every ambiguous record) even when the step changed one field.
// WalPersistence instead appends one batch of small StateDelta records
// per persist — O(delta) bytes — and compacts the log into a fresh
// versioned checkpoint when it outgrows the last checkpoint by a fixed
// factor, so steady-state write cost stays near-constant in n.
//
// WalPersistence owns the ProtocolState it persists. A protocol reads
// it through state() and changes it one way only: apply(delta) runs
// StateDelta::apply on the live state and stages the same delta for the
// step's commit. So the staged batch always describes exactly what the
// step changed, and the write path (commit, compaction, reset) is the
// only place that turns state into stable bytes.
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
// (the default, and required in tests), every write re-runs recovery
// from the bytes actually on disk and asserts replay(checkpoint, log)
// equals the live state. Since a step cannot change the state without
// staging its delta, what the check guards is the codec and the disk:
// a delta or checkpoint that encodes, decodes or replays differently
// from how it applied live, or bytes that changed on disk, fail loudly
// at the very write that exposed them.
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
  /// pre-WAL behavior; kept as the bench baseline and for the naive
  /// baseline, which keeps no log).
  kSnapshot,
  /// Append per-step deltas; compact past the threshold.
  kWal,
};

/// The WAL compacts when its log bytes exceed
/// max(kMinCompactBytes, kCompactFactor * last checkpoint bytes). The
/// factor bounds amortized write cost at delta * (1 + 1/kCompactFactor)
/// per step — O(delta), not O(state) — while keeping recovery replay
/// proportional to one checkpoint.
inline constexpr std::size_t kMinCompactBytes = 1024;
inline constexpr std::size_t kCompactFactor = 4;

struct PersistenceOptions {
  PersistenceMode mode = PersistenceMode::kWal;

  /// Re-derive the state from storage after every commit and assert it
  /// matches (see file header). O(state) reads per persist — disable for
  /// production-speed runs; tests keep it on.
  bool cross_check = true;
};

class WalPersistence {
 public:
  /// Takes `initial` as the live state and writes it as the first
  /// checkpoint: durable from birth, so a crash before the first step
  /// must not erase the fact that a core member once knew (W0, 0).
  /// `metrics` may be null (unit tests); counters are registered once.
  WalPersistence(sim::StableStorage& storage, obs::MetricsRegistry* metrics,
                 std::string_view key_prefix, ProcessId self,
                 PersistenceOptions options, ProtocolState initial);

  /// The live state: what the last apply left, durable once committed.
  [[nodiscard]] const ProtocolState& state() const noexcept { return state_; }

  /// The one way a step changes the state: applies `delta` to the live
  /// state and stages it for the next commit (snapshot mode stages
  /// nothing; its commit rewrites the whole state).
  void apply(StateDelta delta);

  /// Persists the step just taken (paper section 4.4: before any send
  /// that exposes it): appends the staged batch (WAL mode; nothing
  /// staged = nothing to write, the disk already covers the state) or
  /// rewrites the snapshot (snapshot mode). Runs the cross-check when
  /// enabled, then compacts if the log tripped the threshold.
  void commit();

  /// Replaces the whole state and writes it as a fresh checkpoint,
  /// dropping anything staged and truncating the log.
  void reset(ProtocolState state);

  /// Reloads the state after a crash: checkpoint (either format) plus
  /// the log tail beyond it, with the staging buffer and LSN bookkeeping
  /// restored to match. Returns false when the disk was destroyed (paper
  /// footnote 4): the process then restarts with Last_Primary = (∞,-1)
  /// and no trustworthy history (ProtocolState::after_disk_loss) on a
  /// fresh checkpoint, and `lost`, if given, receives the state it held
  /// in memory before.
  bool recover(ProtocolState* lost = nullptr);

  /// Test hook, invoked between the checkpoint write and the log
  /// truncation — the mid-compaction window a crash can land in.
  void set_before_truncate_hook(std::function<void()> hook) {
    before_truncate_hook_ = std::move(hook);
  }

  /// Persist calls made (WAL appends + elided empty commits + snapshots).
  [[nodiscard]] std::uint64_t persists() const noexcept { return persists_; }

 private:
  [[nodiscard]] std::size_t compact_threshold() const noexcept;
  /// Full rewrite of the live state: a checkpoint covering every batch
  /// appended so far, then the log truncated (or, in snapshot mode, the
  /// raw snapshot). Used at birth, by reset, by compaction and by every
  /// snapshot-mode commit.
  void checkpoint();
  /// Decodes checkpoint + log into a fresh state; nullopt on empty disk.
  /// `max_lsn_out` (optional) receives the highest LSN seen.
  [[nodiscard]] std::optional<ProtocolState> replay_storage(
      std::uint64_t* max_lsn_out) const;
  void verify_cross_check() const;

  sim::StableStorage& storage_;
  PersistenceOptions options_;
  ProcessId self_;
  sim::StableStorage::KeyId ckpt_key_;
  sim::StableStorage::KeyId wal_key_;
  ProtocolState state_;
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
