// Wall-clock benchmark of the real-time runtimes (experiment C5).
//
// Six phases:
//
//   (0) Correctness gate: the DES-as-oracle cross-check on 8 seeds for
//       both paper protocols, each seed run probes-off AND probes-on,
//       on EVERY backend — thread-per-process and the M:N pool at
//       W ∈ {1, 2, 4}. The bench *refuses to report numbers from a
//       runtime that diverges from the simulator* — exit 1 — and
//       likewise refuses if the wall-clock probe layer shifts any
//       outcome digest (digest-neutrality: probes-on == probes-off ==
//       DES, at every worker count).
//
//   (1) Reconfiguration latency, thread backend: for each protocol in
//       {basic, optimized, three_phase_recovery} and fleet width n in
//       {4, 8, 16, 32} threads, repeatedly partition into
//       majority/minority and merge back, measuring the wall-clock time
//       from issuing the topology change until every member of the
//       forming component has formed the new primary (per-process
//       formation timestamps come from a ProtocolObserver on the
//       process threads). Reports p50/p99.
//
//   (2) Reconfiguration latency, pool backend: the same grid on the M:N
//       scheduler (W = hardware_concurrency). Each cell's outcome
//       digest must equal the thread backend's for the same seed-free
//       workload — the two backends literally replay each other — and
//       C5 must hold on the pool too (p50(optimized) < p50(three_phase)).
//
//   (3) Phase breakdown: the phase-1 churn with probe rings on,
//       attributing each reconfiguration's wall time on its critical
//       (last-forming) lane into queued / parked / executing /
//       timer-slop buckets (obs/runtime_probe.hpp). The four buckets
//       plus the unattributed residue sum to the wall time exactly; the
//       bench gates the residue below 10%, which is what makes the
//       breakdown a measurement rather than an accounting identity. The
//       optimized protocol's raw probe document is exported for
//       `dvtrace runtime`, and a pool run (W=2) is exported alongside
//       it so the per-worker lanes are inspectable.
//
//   (4) Probe overhead: N adjacent probes-off/probes-on pairs of the
//       phase-1 cell, CPU-timed, identical outcome digests required;
//       overhead = max(0, min-pair-ratio - 1), gated < 5% (estimator
//       rationale in bench/bench_shards.cpp). Run twice: thread backend
//       and pool backend, both gated.
//
//   (5) Fleet-width scaling, pool only: n ∈ {64, 256, 1024} processes
//       carved into groups of 32 that all re-form on every verb
//       (alternating aligned / shifted-by-16 carves). Reports
//       reconfiguration p50/p99 and formed-quorums/sec — the numbers
//       the thread backend cannot produce at all past n≈32.
//
// The paper's claim C5 in real time: [17]-style three-phase recovery
// needs 5 communication rounds per formation where the paper's
// protocols need 2, so its reconfiguration latency must be higher at
// every width — the bench asserts p50(optimized) < p50(three_phase),
// on both backends.
//
// DYNVOTE_RUNTIME_QUICK=1 shrinks widths and iterations for sanitizer
// runs (tools/run_experiments.sh); wall-clock keys in the JSON carry
// *_budget siblings so tools/check_perf.py gates on budgets instead of
// cross-machine-meaningless absolute comparisons.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_report.hpp"
#include "obs/runtime_probe.hpp"
#include "runtime/crosscheck.hpp"
#include "runtime/fleet.hpp"
#include "runtime/pool_transport.hpp"
#include "util/table.hpp"

namespace dynvote::runtime {
namespace {

/// Records each process's latest formation time (transport microseconds)
/// from its own thread; the fleet's quiesce barrier publishes the slots
/// back to the bench thread.
class FormationClock : public ProtocolObserver {
 public:
  explicit FormationClock(std::size_t n) : formed_at_(n) {}

  void on_formed(SimTime time, ProcessId p, const Session&, int) override {
    formed_at_[p.value()].store(time, std::memory_order_relaxed);
  }

  /// Latest formation among `members`, or 0 if someone never formed
  /// after `t0`.
  [[nodiscard]] std::uint64_t formed_by(const ProcessSet& members,
                                        std::uint64_t t0) const {
    std::uint64_t latest = 0;
    for (ProcessId p : members) {
      const std::uint64_t at =
          formed_at_[p.value()].load(std::memory_order_relaxed);
      if (at < t0) return 0;
      latest = std::max(latest, at);
    }
    return latest;
  }

  /// The critical member: the one whose formation completed the
  /// reconfiguration (latest formed_at). Only meaningful when
  /// formed_by(members, t0) != 0.
  [[nodiscard]] std::uint32_t critical(const ProcessSet& members) const {
    std::uint32_t critical = 0;
    std::uint64_t latest = 0;
    for (ProcessId p : members) {
      const std::uint64_t at =
          formed_at_[p.value()].load(std::memory_order_relaxed);
      if (at >= latest) {
        latest = at;
        critical = p.value();
      }
    }
    return critical;
  }

 private:
  std::vector<std::atomic<std::uint64_t>> formed_at_;
};

std::uint64_t percentile(std::vector<std::uint64_t> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

struct LatencyRow {
  ProtocolKind kind;
  std::uint32_t n = 0;
  std::size_t samples = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
};

struct MeasureOut {
  std::vector<std::uint64_t> latencies;  // one per reconfiguration, us
  std::uint64_t digest = 0;              // outcome digest after stop
  /// Probes-only: one attributed window per reconfiguration, and the
  /// final ring snapshot the windows were attributed on.
  std::vector<obs::ReconfigWindow> windows;
  std::vector<obs::ThreadProbeLog> logs;
};

/// One partition/merge churn run. With `collect_windows` (requires
/// probes) the rings are snapshotted after every reconfiguration and
/// the window attributed on its critical lane — the process thread on
/// the thread backend, the owning worker on the pool. Snapshots must
/// be per-cycle because the rings overwrite in place, so waiting until
/// the end could lose the early windows' entries.
MeasureOut measure(ProtocolKind kind, std::uint32_t n, int cycles, bool probes,
                   bool collect_windows,
                   RuntimeBackend backend = RuntimeBackend::kThreadPerProcess,
                   std::uint32_t workers = 0) {
  FleetOptions options;
  options.kind = kind;
  options.n = n;
  options.runtime.probes = probes;
  options.backend = backend;
  options.workers = workers;
  // Timed phase: production persistence. The WAL replay audit re-runs
  // recovery after every persist; it stays on in the cross-check phase.
  options.config.persistence.cross_check = false;
  RuntimeFleet fleet(options);
  FormationClock clock(n);
  ProcessSet majority;
  ProcessSet minority;
  ProcessSet everyone;
  for (std::uint32_t i = 0; i < n; ++i) {
    const ProcessId p(i);
    fleet.protocol(p).set_observer(&clock);
    everyone.insert(p);
    (i <= n / 2 ? majority : minority).insert(p);
  }
  fleet.start();

  MeasureOut out;
  out.latencies.reserve(static_cast<std::size_t>(cycles) * 2);
  auto attribute = [&](const char* verb, const ProcessSet& members,
                       std::uint64_t t0_us, std::uint64_t formed_us) {
    if (!collect_windows || formed_us == 0) return;
    obs::ReconfigWindow window;
    window.verb = verb;
    window.t0_ns = t0_us * 1000;
    window.t1_ns = formed_us * 1000;
    // The lane the critical (last-forming) process executes on: its own
    // thread on the thread backend, its owning worker on the pool.
    window.critical_thread =
        fleet.transport().lane_of(ProcessId(clock.critical(members)));
    out.logs = fleet.probe_logs();
    window.phases = attribute_window(out.logs[window.critical_thread].entries,
                                     window.t0_ns, window.t1_ns);
    out.windows.push_back(std::move(window));
  };
  for (int cycle = 0; cycle < cycles; ++cycle) {
    std::uint64_t t0 = fleet.transport().now();
    fleet.partition({majority, minority});
    std::uint64_t formed = clock.formed_by(majority, t0);
    if (formed != 0) out.latencies.push_back(formed - t0);
    attribute("partition", majority, t0, formed);

    t0 = fleet.transport().now();
    fleet.merge();
    formed = clock.formed_by(everyone, t0);
    if (formed != 0) out.latencies.push_back(formed - t0);
    attribute("merge", everyone, t0, formed);
  }
  fleet.stop();
  out.digest = fleet.outcome_digest();
  return out;
}

/// Process CPU time in milliseconds (all threads; parked threads accrue
/// nothing, so this measures the work, not the waiting).
double cpu_time_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Probe-overhead measurement: N adjacent probes-off/probes-on pairs of
/// the phase-1 cell, CPU-timed, identical outcome digests required.
/// Estimator: max(0, MIN over per-pair ratios - 1) — the min-of-pairs
/// rationale (episodic shared-runner noise inflates pairs, a real
/// regression shifts all of them) is documented at
/// bench/bench_shards.cpp's measure_overhead.
bool measure_overhead(std::uint32_t n, int cycles, int reps, double& overhead,
                      RuntimeBackend backend = RuntimeBackend::kThreadPerProcess,
                      std::uint32_t workers = 0) {
  // Discarded warmup pair (pristine-heap bias, see bench_shards).
  (void)measure(ProtocolKind::kOptimized, n, cycles, false, false, backend,
                workers);
  (void)measure(ProtocolKind::kOptimized, n, cycles, true, false, backend,
                workers);
  double best_ratio = 0;
  std::uint64_t digest_on = 0;
  std::uint64_t digest_off = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const bool off_first = rep % 2 == 0;
    const double t0 = cpu_time_ms();
    const MeasureOut first = measure(ProtocolKind::kOptimized, n, cycles,
                                     !off_first, false, backend, workers);
    const double t1 = cpu_time_ms();
    const MeasureOut second = measure(ProtocolKind::kOptimized, n, cycles,
                                      off_first, false, backend, workers);
    const double t2 = cpu_time_ms();
    const double ms_off = off_first ? t1 - t0 : t2 - t1;
    const double ms_on = off_first ? t2 - t1 : t1 - t0;
    const double ratio = ms_off > 0 ? ms_on / ms_off : 1.0;
    if (rep == 0 || ratio < best_ratio) best_ratio = ratio;
    digest_on = off_first ? second.digest : first.digest;
    digest_off = off_first ? first.digest : second.digest;
  }
  overhead = std::max(0.0, best_ratio - 1.0);
  return digest_on == digest_off;
}

struct ScaleRow {
  std::uint32_t n = 0;
  std::uint32_t workers = 0;
  std::size_t groups = 0;
  std::size_t samples = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  double formed_per_sec = 0;
};

/// Fleet-width scaling on the pool backend (the thread backend caps at
/// n≈32 runnable threads; the pool runs n=1024 over W workers).
///
/// Dynamic voting shapes the workload: only a component holding a
/// majority of the LAST formed session can form the next one, so a
/// balanced carve into groups of 32 would orphan the lineage and
/// nothing would ever form again. Instead the bench (a) cascades the
/// primary down by repeated majority halving (1024 -> 513 -> 257 ->
/// 129 -> 65 -> 33) until the quorum is paper-sized, then (b) churns
/// that 33-member quorum between two overlapping member sets while
/// every other process rides along in inert groups of 32 whose views
/// change on every verb — the background load that makes this a
/// SCALING measurement: all n processes install views and exchange
/// round-1 state on the same W workers the lineage needs. A latency
/// sample is the wall time from issuing the carve until every member
/// of the new quorum has formed; throughput is formed quorums over the
/// churn loop's wall time.
ScaleRow measure_scaling(std::uint32_t n, int cycles) {
  constexpr std::uint32_t kGroup = 32;
  FleetOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = n;
  options.backend = RuntimeBackend::kPool;
  options.workers = 0;  // hardware_concurrency, clamped to [1, n]
  options.config.persistence.cross_check = false;  // timed: no WAL audit
  RuntimeFleet fleet(options);
  FormationClock clock(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    fleet.protocol(ProcessId(i)).set_observer(&clock);
  }
  // One carve: the lineage members in one group, everyone else in inert
  // groups of <= 32 (they install the view and discover they have no
  // quorum; their membership still shifts between consecutive carves
  // because the lineage edge moves, so every verb re-views all n).
  auto carve = [n](std::uint32_t lo, std::uint32_t hi) {
    std::vector<ProcessSet> groups(1);
    std::vector<ProcessId> rest;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i >= lo && i < hi) {
        groups[0].insert(ProcessId(i));
      } else {
        rest.push_back(ProcessId(i));
      }
    }
    for (std::size_t j = 0; j < rest.size(); ++j) {
      const std::size_t g = 1 + j / kGroup;
      if (groups.size() <= g) groups.emplace_back();
      groups[g].insert(rest[j]);
    }
    return groups;
  };

  ScaleRow row;
  row.n = n;
  row.workers = static_cast<PoolTransport&>(fleet.transport()).workers();

  fleet.start();  // forms the n-member session the cascade shrinks
  // (a) Majority cascade, outside the timed region: each step keeps
  // floor(s/2)+1 members of the previous session, the one component
  // that can re-form.
  std::uint32_t quorum = n;
  while (quorum > kGroup + 1) {
    quorum = quorum / 2 + 1;
    fleet.partition(carve(0, quorum));
  }
  row.groups = 1 + (n - quorum + kGroup - 1) / kGroup;

  // (b) Timed churn: alternate the quorum between {0..q-1} and {1..q}.
  // Each is a majority (all but one member) of the session the other
  // formed, so the lineage hands over forever.
  std::vector<std::uint64_t> latencies;
  latencies.reserve(static_cast<std::size_t>(cycles) * 2);
  const auto wall0 = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const std::uint32_t lo : {1u, 0u}) {
      const std::vector<ProcessSet> groups = carve(lo, lo + quorum);
      const std::uint64_t t0 = fleet.transport().now();
      fleet.partition(groups);
      const std::uint64_t formed = clock.formed_by(groups[0], t0);
      if (formed != 0) latencies.push_back(formed - t0);
    }
  }
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  fleet.stop();

  row.samples = latencies.size();
  row.p50_us = percentile(latencies, 50);
  row.p99_us = percentile(latencies, 99);
  row.formed_per_sec =
      wall_sec > 0 ? static_cast<double>(latencies.size()) / wall_sec : 0;
  return row;
}

struct PhaseStats {
  ProtocolKind kind;
  std::size_t reconfigs = 0;
  std::vector<std::uint64_t> wall;
  std::vector<std::uint64_t> queued;
  std::vector<std::uint64_t> parked;
  std::vector<std::uint64_t> executing;
  std::vector<std::uint64_t> timer_slop;
  std::uint64_t wall_sum = 0;
  std::uint64_t unattributed_sum = 0;

  [[nodiscard]] double unattributed_frac() const {
    return wall_sum == 0 ? 0.0
                         : static_cast<double>(unattributed_sum) /
                               static_cast<double>(wall_sum);
  }
};

PhaseStats phase_stats(ProtocolKind kind,
                       const std::vector<obs::ReconfigWindow>& windows) {
  PhaseStats stats;
  stats.kind = kind;
  stats.reconfigs = windows.size();
  for (const obs::ReconfigWindow& w : windows) {
    stats.wall.push_back(w.phases.wall_ns);
    stats.queued.push_back(w.phases.queued_ns);
    stats.parked.push_back(w.phases.parked_ns);
    stats.executing.push_back(w.phases.executing_ns);
    stats.timer_slop.push_back(w.phases.timer_slop_ns);
    stats.wall_sum += w.phases.wall_ns;
    stats.unattributed_sum += w.phases.unattributed_ns;
  }
  return stats;
}

void set_phase_quantiles(JsonValue& row, const char* key,
                         const std::vector<std::uint64_t>& samples) {
  row.set(std::string(key) + "_p50", JsonValue(percentile(samples, 50)));
  row.set(std::string(key) + "_p50_budget",
          JsonValue(std::uint64_t{2000000000}));
  row.set(std::string(key) + "_p99", JsonValue(percentile(samples, 99)));
  row.set(std::string(key) + "_p99_budget",
          JsonValue(std::uint64_t{10000000000}));
}

}  // namespace
}  // namespace dynvote::runtime

int main() {
  using namespace dynvote;
  using namespace dynvote::runtime;

  const bool quick = std::getenv("DYNVOTE_RUNTIME_QUICK") != nullptr;

  // ---- phase 0: the runtimes must match the DES before they may report
  std::puts(
      "cross-check: DES oracle vs thread + pool (W in {1,2,4}) runtimes, "
      "8 seeds, probes off+on");
  Table check_table({"protocol", "seeds", "backends", "digests equal",
                     "C1 clean", "probes neutral"});
  JsonValue check_rows = JsonValue::array();
  bool all_equal = true;
  bool all_c1 = true;
  bool probes_neutral = true;
  for (ProtocolKind kind : {ProtocolKind::kBasic, ProtocolKind::kOptimized}) {
    bool equal = true;
    bool c1 = true;
    bool neutral = true;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const CrossCheckResult result = run_scenario(kind, /*n=*/5, seed);
      const CrossCheckResult probed =
          run_scenario(kind, /*n=*/5, seed, /*steps=*/10, /*probes=*/true);
      if (!result.digests_equal || !probed.digests_equal) {
        equal = false;
        std::fprintf(stderr,
                     "DIVERGENCE %s seed %llu\n--- DES ---\n%s--- runtime "
                     "---\n%s",
                     to_string(kind), static_cast<unsigned long long>(seed),
                     result.sim_summary.c_str(),
                     result.runtime_summary.c_str());
      }
      if (probed.runtime_digest != result.runtime_digest) {
        neutral = false;
        std::fprintf(stderr,
                     "PROBE PERTURBATION %s seed %llu: probes-on digest "
                     "%llx != probes-off digest %llx\n",
                     to_string(kind), static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(probed.runtime_digest),
                     static_cast<unsigned long long>(result.runtime_digest));
      }
      c1 &= result.c1_clean && probed.c1_clean;
    }
    // 5 backends per seed: DES, thread, pool W=1/2/4.
    check_table.add_row({to_string(kind), "8", "5", equal ? "yes" : "NO",
                         c1 ? "yes" : "NO", neutral ? "yes" : "NO"});
    JsonValue row = JsonValue::object();
    row.set("protocol", JsonValue(to_string(kind)));
    row.set("seeds", JsonValue(std::uint64_t{8}));
    row.set("pool_worker_counts", JsonValue(std::uint64_t{3}));
    row.set("digests_equal", JsonValue(equal));
    row.set("c1_clean", JsonValue(c1));
    row.set("probes_digest_equal", JsonValue(neutral));
    check_rows.push_back(std::move(row));
    all_equal &= equal;
    all_c1 &= c1;
    probes_neutral &= neutral;
  }
  std::printf("%s\n", check_table.to_string().c_str());
  if (!all_equal || !all_c1 || !probes_neutral) {
    std::fputs("runtime diverges from the DES oracle (or probes perturb "
               "outcomes); not reporting latencies from a wrong backend\n",
               stderr);
    return 1;
  }

  // ---- phase 1: reconfiguration latency ------------------------------
  const std::vector<std::uint32_t> widths =
      quick ? std::vector<std::uint32_t>{4, 8}
            : std::vector<std::uint32_t>{4, 8, 16, 32};
  const int cycles = quick ? 3 : 12;
  const std::vector<ProtocolKind> kinds = {ProtocolKind::kBasic,
                                           ProtocolKind::kOptimized,
                                           ProtocolKind::kThreePhaseRecovery};

  std::printf("reconfiguration latency, one thread per process (%d "
              "partition+merge cycles)\n",
              cycles);
  Table table({"protocol", "n", "samples", "p50 us", "p99 us"});
  std::vector<LatencyRow> rows;
  std::vector<std::uint64_t> optimized_all;
  std::vector<std::uint64_t> three_phase_all;
  // Per-cell outcome digests, compared against the pool phase below:
  // the two backends run the identical workload, so the transcripts
  // must be byte-identical.
  std::map<std::pair<int, std::uint32_t>, std::uint64_t> thread_digests;
  for (ProtocolKind kind : kinds) {
    for (std::uint32_t n : widths) {
      const MeasureOut cell =
          measure(kind, n, cycles, /*probes=*/false, /*collect_windows=*/false);
      const std::vector<std::uint64_t>& samples = cell.latencies;
      thread_digests[{static_cast<int>(kind), n}] = cell.digest;
      LatencyRow row;
      row.kind = kind;
      row.n = n;
      row.samples = samples.size();
      row.p50_us = percentile(samples, 50);
      row.p99_us = percentile(samples, 99);
      table.add_row({to_string(kind), std::to_string(n),
                     std::to_string(row.samples), std::to_string(row.p50_us),
                     std::to_string(row.p99_us)});
      rows.push_back(row);
      if (kind == ProtocolKind::kOptimized) {
        optimized_all.insert(optimized_all.end(), samples.begin(),
                             samples.end());
      } else if (kind == ProtocolKind::kThreePhaseRecovery) {
        three_phase_all.insert(three_phase_all.end(), samples.begin(),
                               samples.end());
      }
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  const std::uint64_t optimized_p50 = percentile(optimized_all, 50);
  const std::uint64_t three_phase_p50 = percentile(three_phase_all, 50);
  const bool optimized_faster = optimized_p50 < three_phase_p50;
  std::printf("C5 in wall-clock: optimized p50 %llu us vs three-phase "
              "recovery p50 %llu us -> %s\n",
              static_cast<unsigned long long>(optimized_p50),
              static_cast<unsigned long long>(three_phase_p50),
              optimized_faster ? "2-round protocol is faster"
                               : "VIOLATION: 5-round protocol won");

  // ---- phase 2: the same grid on the M:N pool ------------------------
  std::printf("\nreconfiguration latency, pool backend (W = "
              "hardware_concurrency, %d cycles)\n",
              cycles);
  Table pool_table(
      {"protocol", "n", "samples", "p50 us", "p99 us", "digest vs thread"});
  std::vector<LatencyRow> pool_rows;
  std::vector<std::uint64_t> pool_optimized_all;
  std::vector<std::uint64_t> pool_three_phase_all;
  bool pool_digests_match = true;
  for (ProtocolKind kind : kinds) {
    for (std::uint32_t n : widths) {
      const MeasureOut cell =
          measure(kind, n, cycles, /*probes=*/false, /*collect_windows=*/false,
                  RuntimeBackend::kPool);
      const bool match = cell.digest == thread_digests[{static_cast<int>(kind), n}];
      pool_digests_match &= match;
      LatencyRow row;
      row.kind = kind;
      row.n = n;
      row.samples = cell.latencies.size();
      row.p50_us = percentile(cell.latencies, 50);
      row.p99_us = percentile(cell.latencies, 99);
      pool_table.add_row({to_string(kind), std::to_string(n),
                          std::to_string(row.samples),
                          std::to_string(row.p50_us),
                          std::to_string(row.p99_us),
                          match ? "equal" : "DIVERGED"});
      pool_rows.push_back(row);
      if (kind == ProtocolKind::kOptimized) {
        pool_optimized_all.insert(pool_optimized_all.end(),
                                  cell.latencies.begin(),
                                  cell.latencies.end());
      } else if (kind == ProtocolKind::kThreePhaseRecovery) {
        pool_three_phase_all.insert(pool_three_phase_all.end(),
                                    cell.latencies.begin(),
                                    cell.latencies.end());
      }
    }
  }
  std::printf("%s\n", pool_table.to_string().c_str());

  const std::uint64_t pool_optimized_p50 = percentile(pool_optimized_all, 50);
  const std::uint64_t pool_three_phase_p50 =
      percentile(pool_three_phase_all, 50);
  const bool pool_optimized_faster = pool_optimized_p50 < pool_three_phase_p50;
  std::printf("C5 on the pool: optimized p50 %llu us vs three-phase recovery "
              "p50 %llu us -> %s; per-cell digests %s\n",
              static_cast<unsigned long long>(pool_optimized_p50),
              static_cast<unsigned long long>(pool_three_phase_p50),
              pool_optimized_faster ? "2-round protocol is faster"
                                    : "VIOLATION: 5-round protocol won",
              pool_digests_match ? "all equal thread backend" : "DIVERGED");

  // ---- phase 3: where the reconfiguration microseconds go ------------
  const std::uint32_t phase_n = quick ? 4 : 8;
  const int phase_cycles = quick ? 3 : 8;
  std::printf("\nphase breakdown, probes on (n=%u, %d cycles, attributed on "
              "the last-forming thread)\n",
              phase_n, phase_cycles);
  Table phase_table({"protocol", "reconfigs", "wall p50 us", "queued %",
                     "parked %", "exec %", "slop %", "unattr %"});
  std::vector<PhaseStats> phase_rows;
  bool phases_ok = true;
  std::vector<obs::ReconfigWindow> flagship_windows;
  std::vector<obs::ThreadProbeLog> flagship_logs;
  for (ProtocolKind kind : kinds) {
    MeasureOut probed =
        measure(kind, phase_n, phase_cycles, /*probes=*/true,
                /*collect_windows=*/true);
    PhaseStats stats = phase_stats(kind, probed.windows);
    const double wall = std::max<double>(1.0, stats.wall_sum);
    auto pct_of_wall = [&](const std::vector<std::uint64_t>& phase) {
      std::uint64_t sum = 0;
      for (const std::uint64_t v : phase) sum += v;
      return static_cast<double>(sum) * 100.0 / wall;
    };
    char buf[64];
    auto fmt = [&buf](double v) {
      std::snprintf(buf, sizeof buf, "%.1f", v);
      return std::string(buf);
    };
    phase_table.add_row(
        {to_string(kind), std::to_string(stats.reconfigs),
         std::to_string(percentile(stats.wall, 50) / 1000),
         fmt(pct_of_wall(stats.queued)), fmt(pct_of_wall(stats.parked)),
         fmt(pct_of_wall(stats.executing)), fmt(pct_of_wall(stats.timer_slop)),
         fmt(stats.unattributed_frac() * 100.0)});
    phases_ok &= stats.reconfigs > 0 && stats.unattributed_frac() <= 0.10;
    if (kind == ProtocolKind::kOptimized) {
      flagship_windows = std::move(probed.windows);
      flagship_logs = std::move(probed.logs);
    }
    phase_rows.push_back(std::move(stats));
  }
  std::printf("%s\n", phase_table.to_string().c_str());
  if (!phases_ok) {
    std::fputs("phase breakdown failed its own falsifiability gate "
               "(unattributed residue > 10% of wall)\n",
               stderr);
  }

  // The optimized run's raw probe document, for `dvtrace runtime`.
  obs::RuntimeProbeMeta meta;
  meta.protocol = to_string(ProtocolKind::kOptimized);
  meta.n = phase_n;
  meta.wheel_tick_us = RuntimeOptions{}.wheel_tick_us;
  meta.workers = 0;  // thread backend: one lane per process
  const std::string probes_path = write_json_file(
      "runtime_probes.json",
      runtime_probes_json(meta, flagship_logs, flagship_windows));
  if (!probes_path.empty()) {
    std::printf("probe document -> %s\n", probes_path.c_str());
  }

  // A probed pool run of the same cell at W=2, exported so `dvtrace
  // runtime` has per-worker lanes (batch sizes, run-queue depths,
  // handoffs) to render and the Chrome export maps one tid per worker.
  {
    MeasureOut pool_probed =
        measure(ProtocolKind::kOptimized, phase_n, phase_cycles,
                /*probes=*/true, /*collect_windows=*/true,
                RuntimeBackend::kPool, /*workers=*/2);
    obs::RuntimeProbeMeta pool_meta = meta;
    pool_meta.workers = 2;
    const std::string pool_probes_path = write_json_file(
        "runtime_pool_probes.json",
        runtime_probes_json(pool_meta, pool_probed.logs, pool_probed.windows));
    if (!pool_probes_path.empty()) {
      std::printf("pool probe document (W=2) -> %s\n",
                  pool_probes_path.c_str());
    }
  }

  // ---- phase 4: what the probes cost ---------------------------------
  double overhead = 0;
  const bool overhead_digests_equal =
      // Quick mode uses more cycles/reps per cell than the rest of the
      // quick bench: a sub-millisecond cell is dominated by
      // scheduler-dependent CPU-time noise on small hosts, and the
      // min-of-pairs estimator needs enough pairs for one clean one.
      measure_overhead(phase_n, quick ? 6 : 4, quick ? 6 : 5, overhead);
  const bool overhead_ok = overhead < 0.05 && overhead_digests_equal;
  std::printf("probe overhead, thread backend (min of adjacent-pair CPU "
              "ratios): %.2f%% (budget 5%%) digests %s -> %s\n",
              overhead * 100.0, overhead_digests_equal ? "equal" : "UNEQUAL",
              overhead_ok ? "ok" : "FAIL");

  double pool_overhead = 0;
  const bool pool_overhead_digests_equal =
      measure_overhead(phase_n, quick ? 6 : 4, quick ? 6 : 5, pool_overhead,
                       RuntimeBackend::kPool);
  const bool pool_overhead_ok = pool_overhead < 0.05 &&
                                pool_overhead_digests_equal;
  std::printf("probe overhead, pool backend: %.2f%% (budget 5%%) digests %s "
              "-> %s\n",
              pool_overhead * 100.0,
              pool_overhead_digests_equal ? "equal" : "UNEQUAL",
              pool_overhead_ok ? "ok" : "FAIL");

  // ---- phase 5: fleet-width scaling on the pool ----------------------
  const std::vector<std::uint32_t> scale_widths =
      quick ? std::vector<std::uint32_t>{64}
            : std::vector<std::uint32_t>{64, 256, 1024};
  const int scale_cycles = quick ? 2 : 3;
  std::printf("\nfleet-width scaling, pool backend (groups of 32, %d "
              "alternating-carve cycles)\n",
              scale_cycles);
  Table scale_table({"n", "workers", "groups", "samples", "reconfig p50 us",
                     "reconfig p99 us", "formed quorums/s"});
  std::vector<ScaleRow> scale_rows;
  for (const std::uint32_t n : scale_widths) {
    const ScaleRow row = measure_scaling(n, scale_cycles);
    char rate[64];
    std::snprintf(rate, sizeof rate, "%.1f", row.formed_per_sec);
    scale_table.add_row({std::to_string(row.n), std::to_string(row.workers),
                         std::to_string(row.groups),
                         std::to_string(row.samples),
                         std::to_string(row.p50_us),
                         std::to_string(row.p99_us), rate});
    scale_rows.push_back(row);
  }
  std::printf("%s\n", scale_table.to_string().c_str());

  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("runtime"));
  JsonValue crosscheck = JsonValue::object();
  crosscheck.set("seeds", JsonValue(std::uint64_t{8}));
  crosscheck.set("all_equal", JsonValue(all_equal));
  crosscheck.set("all_c1", JsonValue(all_c1));
  crosscheck.set("probes_all_equal", JsonValue(probes_neutral));
  crosscheck.set("rows", std::move(check_rows));
  result.set("crosscheck", std::move(crosscheck));
  JsonValue latency_rows = JsonValue::array();
  for (const LatencyRow& row : rows) {
    JsonValue json_row = JsonValue::object();
    json_row.set("protocol", JsonValue(to_string(row.kind)));
    json_row.set("n", JsonValue(std::uint64_t{row.n}));
    json_row.set("samples", JsonValue(std::uint64_t{row.samples}));
    // Wall-clock values vary across machines: each key carries a budget
    // sibling so tools/check_perf.py gates on the budget, not the value.
    json_row.set("p50_us", JsonValue(row.p50_us));
    json_row.set("p50_us_budget", JsonValue(std::uint64_t{2000000}));
    json_row.set("p99_us", JsonValue(row.p99_us));
    json_row.set("p99_us_budget", JsonValue(std::uint64_t{10000000}));
    latency_rows.push_back(std::move(json_row));
  }
  result.set("rows", std::move(latency_rows));

  JsonValue pool_latency_rows = JsonValue::array();
  for (const LatencyRow& row : pool_rows) {
    JsonValue json_row = JsonValue::object();
    json_row.set("protocol", JsonValue(to_string(row.kind)));
    json_row.set("n", JsonValue(std::uint64_t{row.n}));
    json_row.set("samples", JsonValue(std::uint64_t{row.samples}));
    json_row.set("p50_us", JsonValue(row.p50_us));
    json_row.set("p50_us_budget", JsonValue(std::uint64_t{2000000}));
    json_row.set("p99_us", JsonValue(row.p99_us));
    json_row.set("p99_us_budget", JsonValue(std::uint64_t{10000000}));
    pool_latency_rows.push_back(std::move(json_row));
  }
  result.set("pool_rows", std::move(pool_latency_rows));

  JsonValue phases = JsonValue::object();
  phases.set("n", JsonValue(std::uint64_t{phase_n}));
  phases.set("cycles", JsonValue(std::uint64_t{
                           static_cast<std::uint64_t>(phase_cycles)}));
  JsonValue phase_json_rows = JsonValue::array();
  for (const PhaseStats& stats : phase_rows) {
    JsonValue row = JsonValue::object();
    row.set("protocol", JsonValue(to_string(stats.kind)));
    row.set("reconfigs", JsonValue(std::uint64_t{stats.reconfigs}));
    set_phase_quantiles(row, "wall_ns", stats.wall);
    set_phase_quantiles(row, "queued_ns", stats.queued);
    set_phase_quantiles(row, "parked_ns", stats.parked);
    set_phase_quantiles(row, "executing_ns", stats.executing);
    set_phase_quantiles(row, "timer_slop_ns", stats.timer_slop);
    row.set("unattributed_frac", JsonValue(stats.unattributed_frac()));
    row.set("unattributed_frac_budget", JsonValue(0.10));
    phase_json_rows.push_back(std::move(row));
  }
  phases.set("rows", std::move(phase_json_rows));
  phases.set("all_within_budget", JsonValue(phases_ok));
  result.set("phases", std::move(phases));

  JsonValue overhead_json = JsonValue::object();
  overhead_json.set("probe_overhead_frac", JsonValue(overhead));
  overhead_json.set("probe_overhead_frac_budget", JsonValue(0.05));
  overhead_json.set("digests_equal", JsonValue(overhead_digests_equal));
  overhead_json.set("pool_probe_overhead_frac", JsonValue(pool_overhead));
  overhead_json.set("pool_probe_overhead_frac_budget", JsonValue(0.05));
  overhead_json.set("pool_digests_equal",
                    JsonValue(pool_overhead_digests_equal));
  result.set("overhead", std::move(overhead_json));

  JsonValue comparison = JsonValue::object();
  comparison.set("optimized_p50_us", JsonValue(optimized_p50));
  comparison.set("optimized_p50_us_budget", JsonValue(std::uint64_t{2000000}));
  comparison.set("three_phase_p50_us", JsonValue(three_phase_p50));
  comparison.set("three_phase_p50_us_budget",
                 JsonValue(std::uint64_t{10000000}));
  comparison.set("optimized_faster", JsonValue(optimized_faster));
  result.set("comparison", std::move(comparison));

  JsonValue pool_comparison = JsonValue::object();
  pool_comparison.set("optimized_p50_us", JsonValue(pool_optimized_p50));
  pool_comparison.set("optimized_p50_us_budget",
                      JsonValue(std::uint64_t{2000000}));
  pool_comparison.set("three_phase_p50_us", JsonValue(pool_three_phase_p50));
  pool_comparison.set("three_phase_p50_us_budget",
                      JsonValue(std::uint64_t{10000000}));
  pool_comparison.set("optimized_faster", JsonValue(pool_optimized_faster));
  pool_comparison.set("digests_match_thread_backend",
                      JsonValue(pool_digests_match));
  result.set("pool_comparison", std::move(pool_comparison));

  JsonValue scaling = JsonValue::object();
  scaling.set("group_size", JsonValue(std::uint64_t{32}));
  scaling.set("cycles", JsonValue(std::uint64_t{
                            static_cast<std::uint64_t>(scale_cycles)}));
  JsonValue scale_json_rows = JsonValue::array();
  for (const ScaleRow& row : scale_rows) {
    JsonValue json_row = JsonValue::object();
    json_row.set("n", JsonValue(std::uint64_t{row.n}));
    // Worker count is machine-dependent (hardware_concurrency); the
    // "pool_threads" key is on check_perf's machine-context skip list.
    json_row.set("pool_threads", JsonValue(std::uint64_t{row.workers}));
    json_row.set("groups", JsonValue(std::uint64_t{row.groups}));
    json_row.set("samples", JsonValue(std::uint64_t{row.samples}));
    json_row.set("p50_us", JsonValue(row.p50_us));
    json_row.set("p50_us_budget", JsonValue(std::uint64_t{30000000}));
    json_row.set("p99_us", JsonValue(row.p99_us));
    json_row.set("p99_us_budget", JsonValue(std::uint64_t{60000000}));
    json_row.set("formed_quorums_per_sec", JsonValue(row.formed_per_sec));
    // Lower-bound gate (check_perf "_floor"): throughput regresses
    // downward, so the rate gets a floor, not a budget. Every verb
    // re-views all n processes and each protocol message carries the
    // previous session's n-member set, so one handover at n=1024 costs
    // seconds of single-core time — the floor must hold there too.
    json_row.set("formed_quorums_per_sec_floor", JsonValue(0.1));
    scale_json_rows.push_back(std::move(json_row));
  }
  scaling.set("rows", std::move(scale_json_rows));
  result.set("scaling", std::move(scaling));
  emit_bench_result("runtime", result);

  return optimized_faster && pool_optimized_faster && pool_digests_match &&
                 phases_ok && overhead_ok && pool_overhead_ok
             ? 0
             : 1;
}
