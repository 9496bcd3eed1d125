// Simulated per-process stable storage.
//
// The paper (section 4.4) requires each process to "write the change to a
// stable storage before responding to the message that caused the
// change". Storage lives in the Simulator, not in the Node, so it
// survives crashes; `destroy()` models the severe disk error of the
// paper's footnotes 2 and 4 (correctness kept, availability reduced).
//
// Two write surfaces exist per key:
//
//   * a *value* slot (`put`) — the whole-state snapshot / checkpoint;
//   * an append-only *log* (`append`) — the delta WAL the protocols
//     write on every step, truncated when a fresh checkpoint lands.
//
// Keys are interned once into small dense `KeyId`s (cold path); every
// read and write then names its key by id, so the persist path indexes a
// flat vector and never hashes or compares a string. Protocol state
// reaches storage only through WalPersistence (dv/wal.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dynvote::sim {

class StableStorage {
 public:
  using KeyId = std::uint32_t;

  /// Interns `key`, returning its dense id. Idempotent; ids are stable
  /// for the lifetime of the storage (they survive destroy(), which
  /// wipes data, not the naming). Cold path — call once at wiring time.
  KeyId intern(std::string_view key);

  /// Durably stores the buffer as the key's value, replacing any
  /// previous value. Reuses the capacity of the existing entry, so a hot
  /// persist path rewriting the same key settles into zero allocations.
  void put(KeyId key, const std::uint8_t* data, std::size_t size);

  /// Appends one record to the key's log. The log is a flat byte
  /// sequence — records carry their own framing (the WAL layer
  /// length-delimits via its codec).
  void append(KeyId key, const std::uint8_t* data, std::size_t size);

  /// Borrowed view of the key's value; nullptr when absent.
  [[nodiscard]] const std::vector<std::uint8_t>* value(KeyId key) const;

  /// Borrowed view of the key's log bytes (empty vector when never
  /// appended or truncated).
  [[nodiscard]] const std::vector<std::uint8_t>& log(KeyId key) const;

  /// Records appended since the last truncate, and their total bytes.
  [[nodiscard]] std::uint64_t log_records(KeyId key) const;
  [[nodiscard]] std::size_t log_bytes(KeyId key) const;

  /// Drops the log (checkpoint compaction). Keeps the buffer capacity:
  /// steady-state compaction does not re-grow the log allocation.
  void truncate_log(KeyId key);

  /// Wipes everything — values and logs: the "severe disk crash" fault.
  /// A process recovering afterwards comes up with no history, i.e. with
  /// Last_Primary = (infinity, -1). Interned ids stay valid.
  void destroy();

  [[nodiscard]] bool destroyed_once() const noexcept { return destroyed_; }

  /// Keys currently holding data (a value, a non-empty log, or both).
  [[nodiscard]] std::size_t entry_count() const noexcept;

  // -- write metrics (stable-storage traffic is part of the protocol's
  //    cost story) --
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  /// Appends are counted in writes() too; this splits them out.
  [[nodiscard]] std::uint64_t appends() const noexcept { return appends_; }

 private:
  struct Entry {
    bool has_value = false;
    std::vector<std::uint8_t> value;
    std::vector<std::uint8_t> log;
    std::uint64_t log_records = 0;
  };

  Entry& entry(KeyId key);
  [[nodiscard]] const Entry& entry(KeyId key) const;

  std::vector<Entry> entries_;  // indexed by KeyId
  std::map<std::string, KeyId, std::less<>> ids_;
  bool destroyed_ = false;
  std::uint64_t writes_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t appends_ = 0;
};

}  // namespace dynvote::sim
