#include "dv/wal.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/ensure.hpp"

namespace dynvote {

WalPersistence::WalPersistence(sim::StableStorage& storage,
                               obs::MetricsRegistry* metrics,
                               std::string_view key_prefix, ProcessId self,
                               PersistenceOptions options,
                               ProtocolState initial)
    : storage_(storage),
      options_(options),
      self_(self),
      ckpt_key_(storage.intern(key_prefix)),
      wal_key_(storage.intern(std::string(key_prefix) + ".wal")),
      state_(std::move(initial)) {
  if (metrics != nullptr) {
    wal_appends_ = &metrics->counter("dv.storage.wal_appends");
    wal_bytes_ = &metrics->counter("dv.storage.wal_bytes");
    checkpoints_ = &metrics->counter("dv.storage.checkpoints");
    checkpoint_bytes_ = &metrics->counter("dv.storage.checkpoint_bytes");
    snapshots_ = &metrics->counter("dv.storage.snapshots");
    snapshot_bytes_ = &metrics->counter("dv.storage.snapshot_bytes");
    persist_calls_ = &metrics->counter("dv.storage.persists");
  }
  checkpoint();
}

void WalPersistence::apply(StateDelta delta) {
  delta.apply(state_, self_);
  if (options_.mode == PersistenceMode::kWal) {
    pending_.push_back(std::move(delta));
  }
}

void WalPersistence::commit() {
  ++persists_;
  if (persist_calls_ != nullptr) persist_calls_->increment();

  if (options_.mode == PersistenceMode::kSnapshot) {
    checkpoint();  // the whole state, every time
    return;
  }

  if (!pending_.empty()) {
    scratch_.clear();
    scratch_.put_varint(next_lsn_);
    scratch_.put_varint(pending_.size());
    for (const StateDelta& delta : pending_) delta.encode(scratch_);
    storage_.append(wal_key_, scratch_.bytes().data(), scratch_.size());
    ++next_lsn_;
    pending_.clear();
    if (wal_appends_ != nullptr) {
      wal_appends_->increment();
      wal_bytes_->add(scratch_.size());
    }
  }
  // else: nothing changed since the last commit — the bytes on disk
  // already describe the state, so the write is elided entirely.

  if (storage_.log_bytes(wal_key_) > compact_threshold()) {
    checkpoint();  // verifies internally
    return;
  }
  if (options_.cross_check) verify_cross_check();
}

void WalPersistence::reset(ProtocolState state) {
  state_ = std::move(state);
  checkpoint();
}

void WalPersistence::checkpoint() {
  // Anything still staged is folded into the snapshot below.
  pending_.clear();
  scratch_.clear();

  if (options_.mode == PersistenceMode::kSnapshot) {
    // Raw ProtocolState, no checkpoint framing: byte-identical to the
    // pre-WAL persist path.
    state_.encode(scratch_);
    storage_.put(ckpt_key_, scratch_.bytes().data(), scratch_.size());
    if (snapshots_ != nullptr) {
      snapshots_->increment();
      snapshot_bytes_->add(scratch_.size());
    }
  } else {
    // Batches appended so far carry lsn < next_lsn_; all of them are
    // folded into this snapshot, so recovery must skip every one that a
    // mid-compaction crash leaves behind in the log.
    encode_checkpoint(scratch_, state_, /*covers_lsn=*/next_lsn_ - 1);
    storage_.put(ckpt_key_, scratch_.bytes().data(), scratch_.size());
    last_checkpoint_bytes_ = scratch_.size();
    if (checkpoints_ != nullptr) {
      checkpoints_->increment();
      checkpoint_bytes_->add(scratch_.size());
    }
    if (before_truncate_hook_) before_truncate_hook_();
    storage_.truncate_log(wal_key_);
  }

  if (options_.cross_check) verify_cross_check();
}

bool WalPersistence::recover(ProtocolState* lost) {
  pending_.clear();
  std::uint64_t max_lsn = 0;
  std::optional<ProtocolState> recovered = replay_storage(&max_lsn);
  next_lsn_ = max_lsn + 1;
  if (!recovered) {
    // Birth wrote a checkpoint, so an empty store means the disk was
    // destroyed; the fresh checkpoint covers no batch (lsn 0).
    if (lost != nullptr) *lost = std::move(state_);
    reset(ProtocolState::after_disk_loss(self_));
    return false;
  }
  state_ = std::move(*recovered);
  last_checkpoint_bytes_ = storage_.value(ckpt_key_)->size();
  return true;
}

std::size_t WalPersistence::compact_threshold() const noexcept {
  return std::max(kMinCompactBytes, kCompactFactor * last_checkpoint_bytes_);
}

std::optional<ProtocolState> WalPersistence::replay_storage(
    std::uint64_t* max_lsn_out) const {
  const std::vector<std::uint8_t>* ckpt_bytes = storage_.value(ckpt_key_);
  const std::vector<std::uint8_t>& log = storage_.log(wal_key_);
  if (ckpt_bytes == nullptr) {
    // The constructor checkpoints before any commit can append, so a
    // missing checkpoint means the disk was destroyed — and destroy()
    // wipes the log with it.
    ensure(log.empty(), "WAL log present without a checkpoint");
    return std::nullopt;
  }

  CheckpointRecord record = decode_checkpoint(*ckpt_bytes);
  ProtocolState state = std::move(record.state);
  std::uint64_t max_lsn = record.covers_lsn;
  Decoder dec(log);
  while (!dec.exhausted()) {
    const std::uint64_t lsn = dec.get_varint();
    const std::uint64_t count = dec.get_varint();
    if (count > dec.remaining()) {
      throw CodecError("WAL batch count prefix too large");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      const StateDelta delta = StateDelta::decode(dec);
      // A checkpoint written but not yet truncated (crash mid-compaction)
      // leaves already-covered batches in the log; replaying them would
      // double-apply. Skip anything the checkpoint covers.
      if (lsn > record.covers_lsn) delta.apply(state, self_);
    }
    max_lsn = std::max(max_lsn, lsn);
  }
  if (max_lsn_out != nullptr) *max_lsn_out = max_lsn;
  return state;
}

void WalPersistence::verify_cross_check() const {
  const std::optional<ProtocolState> replayed = replay_storage(nullptr);
  ensure(replayed.has_value(), "cross-check: storage empty after persist");
  if (*replayed != state_) {
    throw InvariantViolation(
        "cross-check: replay(checkpoint, log) diverges from live state — "
        "the bytes on disk do not describe it.\n  replayed: " +
        replayed->to_string() + "\n  live:     " + state_.to_string());
  }
}

}  // namespace dynvote
