// RuntimeFleet: one real-thread system running one protocol variant.
//
// The runtime analogue of harness::Cluster: wires a PoolTransport to
// one protocol node per process, plays the membership oracle's role
// (the oracle itself is simulator-scheduled, so the fleet re-implements
// its exact view-announcement algorithm over the transport's live
// components — same view-id sequence, same changed-component filter),
// and exposes the same fault-injection verbs. Between verbs the fleet
// quiesces the transport, which makes the execution step-deterministic:
// every topology step runs to a fixed point before the next, exactly
// like Cluster::settle() — that is what lets the DES act as the oracle
// for this backend (runtime/crosscheck.hpp).
//
// Thread-safety: all methods are controller-thread only. probe() reads
// node state from the owning threads (via run_on + quiesce), so it is
// safe while running; outcome_summary()/outcome_digest() require the
// fleet to be stopped.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dv/service.hpp"
#include "runtime/pool_transport.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote::runtime {

// These three names exist only for benchmark/adapter.cpp, which still
// spells the backend choice out: `RuntimeTransport`, the single-value
// `RuntimeBackend`, and `FleetOptions::backend` (read by no code). They
// go with the next change to benchmark/.
using RuntimeTransport = PoolTransport;
enum class RuntimeBackend : std::uint8_t { kPool };

struct FleetOptions {
  ProtocolKind kind = ProtocolKind::kOptimized;
  /// Number of core processes (ids 0..n-1). Ignored if config.core set.
  std::uint32_t n = 5;
  DvConfig config;
  RuntimeOptions runtime;
  RuntimeBackend backend = RuntimeBackend::kPool;
  /// Pool worker count; 0 = hardware_concurrency, always clamped to
  /// [1, n]. n gives every process its own worker thread.
  std::uint32_t workers = 0;
};

/// One process's state as observed by probe(): read on the process's
/// own thread, published to the controller by the quiesce barrier.
struct ProcessProbe {
  ProcessId id;
  bool alive = false;
  bool is_primary = false;
  std::optional<Session> primary;
  std::uint64_t formed_count = 0;
};

class RuntimeFleet {
 public:
  explicit RuntimeFleet(FleetOptions options);
  ~RuntimeFleet();

  RuntimeFleet(const RuntimeFleet&) = delete;
  RuntimeFleet& operator=(const RuntimeFleet&) = delete;

  /// Spawns the worker threads, connects everyone, announces the first
  /// view, and waits for the initial sessions to settle.
  void start();

  /// Stops and joins all worker threads. Idempotent; the destructor
  /// calls it. After stop() the outcome accessors are available.
  void stop();

  // -- fault injection (each verb runs to quiescence) ---------------------
  void partition(const std::vector<ProcessSet>& groups);
  void merge();
  void crash(ProcessId p);
  void recover(ProcessId p);

  /// Snapshot of every process's protocol state, in id order.
  [[nodiscard]] std::vector<ProcessProbe> probe();

  /// Every probe ring: one lane per worker plus the controller (see
  /// PoolTransport::snapshot_probe_logs); empty without runtime.probes.
  [[nodiscard]] std::vector<obs::ThreadProbeLog> probe_logs() {
    return transport_.snapshot_probe_logs();
  }

  /// Distinct primary sessions among live probed processes. C1 (total
  /// order on primaries) requires <= 1 at any quiescent point.
  [[nodiscard]] static std::size_t distinct_primaries(
      const std::vector<ProcessProbe>& probes);

  /// Canonical per-process outcome transcript: every view install and
  /// session formation (id/number/members/rounds, no wall-clock times)
  /// plus the final protocol state. Two executions that made the same
  /// protocol decisions produce identical summaries — this is the string
  /// the DES cross-check compares (after stop()).
  [[nodiscard]] std::string outcome_summary();

  /// FNV-1a 64 of outcome_summary().
  [[nodiscard]] std::uint64_t outcome_digest();

  [[nodiscard]] PoolTransport& transport() noexcept { return transport_; }
  [[nodiscard]] const std::vector<ProcessId>& processes() const noexcept {
    return transport_.processes();
  }
  [[nodiscard]] ProtocolNode& protocol(ProcessId p);
  [[nodiscard]] const DvConfig& config() const noexcept { return config_; }

 private:
  /// Index of `p` in processes() and nodes_.
  [[nodiscard]] std::size_t slot_of(ProcessId p) const;
  /// MembershipOracle::on_topology_changed, verbatim: announce a fresh
  /// view (ids from next_view_id_, starting 1) for every live component
  /// whose membership differs from some member's latest view.
  void announce_views();

  FleetOptions options_;
  DvConfig config_;
  PoolTransport transport_;
  std::vector<std::unique_ptr<ProtocolNode>> nodes_;  // id order
  /// latest_scheduled_ mirror: the members of the last view announced to
  /// each process (persists across crashes, exactly like the oracle).
  std::vector<ProcessSet> latest_members_;
  std::vector<bool> has_view_;
  std::uint64_t next_view_id_ = 1;
  bool started_ = false;
};

/// FNV-1a 64-bit — tiny, deterministic, dependency-free; collisions are
/// irrelevant here (the cross-check compares summaries on mismatch).
[[nodiscard]] std::uint64_t fnv1a64(const std::string& data);

}  // namespace dynvote::runtime
