// The benchmark's only door into the library.
//
// dvbench.cpp never includes a header from src/: every call into the
// library goes through the two backends declared here, and every value
// crossing this boundary is a plain integer, string or vector. A change
// to a library signature therefore touches adapter.cpp and nothing else
// — in particular not the timed loops in dvbench.cpp.
//
// Threading: a PoolFleet runs its protocol processes on W worker threads;
// every method here is called from the one controlling thread, and the
// stamps the observer writes on the workers are published by the quiesce
// barrier that ends every verb.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dvbench {

/// One topology verb of a workload script.
struct Verb {
  enum class Kind : std::uint8_t { kPartition, kMerge, kCrash, kRecover };
  Kind kind = Kind::kMerge;
  std::vector<std::vector<std::uint32_t>> groups;  // kPartition: disjoint
  std::uint32_t process = 0;                        // kCrash / kRecover
};

[[nodiscard]] const char* verb_name(Verb::Kind kind) noexcept;

/// Per-process FNV-1a digests of protocol transcripts, in the V/F text
/// format of the library's outcome summaries (" V<view>=<members>",
/// " F<session>r<rounds>=<members>", then " | primary=... formed=...").
/// Fed incrementally so no backend has to keep its whole trace.
class Transcript {
 public:
  explicit Transcript(std::uint32_t n);
  void feed(std::uint32_t p, std::string_view text);
  /// FNV-1a over the per-process digests in id order.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::vector<std::uint64_t> hash_;
};

[[nodiscard]] std::uint64_t fnv1a(std::string_view text,
                                  std::uint64_t hash = 14695981039346656037ULL);

/// Latest observer stamps of one pool process. Times are nanoseconds on
/// the fleet's clock (PoolFleet::now_ns); counts are since start.
struct Stamp {
  std::uint64_t view_ns = 0;
  std::uint64_t attempt_ns = 0;
  std::uint64_t formed_ns = 0;
  std::int64_t primary = -1;  // session number while primary, else -1
  std::uint64_t views = 0;
  std::uint64_t formed = 0;
  std::uint64_t rejected = 0;
};

/// A backend's MetricsRegistry counters; the pool fills only the first
/// two.
struct Counters {
  std::uint64_t sent = 0;       // protocol messages sent
  std::uint64_t delivered = 0;  // messages handed to a protocol node
  std::uint64_t bytes = 0;      // payload bytes admitted to the network
  std::uint64_t events = 0;     // simulator events executed
  std::uint64_t persists = 0;   // WAL persist calls
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoints = 0;
};

/// A reconfiguration window to attribute on the pool's probe lanes.
struct Window {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint32_t critical = 0;  // the last member of the forming component
  Verb::Kind kind = Verb::Kind::kMerge;
};

/// Where one window's wall time went on its critical lane.
struct Phases {
  std::uint64_t wall = 0;
  std::uint64_t queued = 0;
  std::uint64_t parked = 0;
  std::uint64_t executing = 0;
  std::uint64_t slop = 0;
  std::uint64_t unattributed = 0;
};

/// Probe entries recorded on the worker lanes, accumulated across
/// snapshots without double counting.
struct ProbeTally {
  std::vector<std::uint64_t> wakeup_ns;
  std::vector<std::uint64_t> handler_ns;
  std::vector<std::uint64_t> batch;
  std::uint64_t parks = 0;
  std::uint64_t spills = 0;
  std::uint64_t lost = 0;     // entries overwritten before a snapshot
  std::uint64_t entries = 0;  // new worker-lane entries seen
};

/// The optimized protocol on the M:N pool runtime, with the production
/// persistence setting (no WAL cross-check), no injected message delay,
/// and a stamping observer on every process.
class PoolFleet {
 public:
  /// `probe_capacity` 0 = probes off.
  PoolFleet(std::uint32_t n, std::uint32_t workers,
            std::size_t probe_capacity);
  ~PoolFleet();
  PoolFleet(const PoolFleet&) = delete;
  PoolFleet& operator=(const PoolFleet&) = delete;

  [[nodiscard]] std::uint32_t workers() const;
  void start();
  /// Issues the verb and returns once the runtime is quiescent. Returns
  /// the clock reading taken just before the topology change (after the
  /// verb's groups were converted, so the window holds only the runtime).
  std::uint64_t apply(const Verb& verb);
  [[nodiscard]] std::uint64_t now_ns() const;
  [[nodiscard]] Stamp stamp(std::uint32_t p) const;

  // -- outside timed windows ------------------------------------------------
  /// Folds and clears every process's trace sink (run_on + quiesce).
  void fold(Transcript& transcript);
  /// Stops the fleet, folds the remaining events and the final states.
  void finish(Transcript& transcript);
  /// Messages sent and delivered, summed over the processes.
  [[nodiscard]] Counters counters();

  /// Snapshots the probe rings, attributes each window on its critical
  /// lane and adds the entries recorded since the previous call to
  /// `tally`.
  [[nodiscard]] std::vector<Phases> attribute(
      const std::vector<Window>& windows, ProbeTally& tally);
  /// Writes the last snapshot plus every attributed window as the probe
  /// document `dvtrace runtime` renders. Returns false on I/O failure.
  bool write_probe_document(const std::string& path);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The optimized protocol on the discrete-event simulator (Cluster),
/// optionally with the replicated KV store on top.
class DesCluster {
 public:
  DesCluster(std::uint32_t n, std::uint64_t seed, bool wal_audit, bool kv);
  ~DesCluster();
  DesCluster(const DesCluster&) = delete;
  DesCluster& operator=(const DesCluster&) = delete;

  void start();
  /// Applies the topology change; its consequences stay pending.
  void apply(const Verb& verb);
  [[nodiscard]] bool idle() const;
  void advance(std::uint64_t ticks);
  void settle();
  [[nodiscard]] std::uint64_t now() const;

  /// KV write through process p's replica. Returns the session number of
  /// the primary that accepted it, or -1 when p refused it.
  std::int64_t write(std::uint32_t p, const std::string& key,
                     std::string value);
  void sync_primary();
  /// Divergences found by the KV audit.
  [[nodiscard]] std::size_t kv_audit() const;

  /// Distinct primary sessions among live processes (C1: at most 1).
  [[nodiscard]] std::size_t distinct_primaries();
  /// Split-brain and duplicate-number violations seen by the checker.
  [[nodiscard]] std::size_t checker_violations() const;

  struct Formation {
    std::vector<std::uint32_t> formed;  // processes that formed, sorted
    std::int64_t session = -1;          // number of the formed session
    std::uint64_t last_formed = 0;      // virtual time of the last one
  };
  /// Folds the events recorded since the last call into `transcript`,
  /// reports who formed, and clears the trace sink and recorder.
  Formation fold(Transcript& transcript);
  /// Folds the final protocol states.
  void finish(Transcript& transcript);
  [[nodiscard]] Counters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dvbench
