// Wall-clock benchmark of the real-time runtime (experiment C5).
//
// Four phases:
//
//   (1) Reconfiguration latency: for each protocol in {basic,
//       optimized, three_phase_recovery} and fleet width n in
//       {4, 8, 16, 32}, on the pool at W = hardware_concurrency,
//       repeatedly partition into majority/minority and merge back,
//       measuring the wall-clock time from issuing the topology change
//       until every member of the forming component has formed the new
//       primary (per-process formation timestamps come from a trace
//       listener on the workers). Reports p50/p99. Each cell's
//       outcome digest must equal the DES replay of the same script,
//       and C1 must hold at every step of that replay; the bench
//       refuses to pass with numbers from a runtime that diverges from
//       the simulator. The seeded cross-check over random scripts at
//       W ∈ {1, 2, 4, n}, probes off and on, is a ctest case
//       (RuntimeCrossCheck.DigestsMatchOnEightSeeds).
//
//   (2) Phase breakdown: the phase-1 churn with probe rings on, at
//       W = n (one process per worker thread), attributing each
//       reconfiguration's wall time on its critical (last-forming)
//       process's lane into queued / parked / executing buckets
//       (obs/runtime_probe.hpp). The buckets plus the unattributed
//       residue sum to the wall time exactly; the bench gates the
//       residue below 10%, which is what makes the breakdown a
//       measurement rather than an accounting identity. The optimized
//       protocol's raw probe document is exported for `dvtrace runtime`.
//
//   (3) Probe overhead: adjacent probes-off/probes-on pairs of a
//       phase-1 cell (optimized, at the phase-2 width), CPU-timed,
//       identical outcome digests required in every pair; overhead =
//       max(0, min-pair-ratio - 1), gated < 5% (paired_overhead in
//       harness/bench_report.hpp, which gives the estimator's
//       rationale).
//
//   (4) Fleet-width scaling: n ∈ {64, 256, 1024} processes carved into
//       groups of 32 that all re-form on every verb (alternating
//       aligned / shifted-by-16 carves). Reports the set-up wall time
//       (fleet construction, start and the majority cascade; the median
//       of three set-ups), reconfiguration p50/p99 and formed-quorums/sec.
//
// The paper's claim C5 in real time: [17]-style three-phase recovery
// needs 5 communication rounds per formation where the paper's
// protocols need 2, so its reconfiguration latency must be higher at
// every width — the bench asserts p50(optimized) < p50(three_phase).
//
// DYNVOTE_RUNTIME_QUICK=1 shrinks widths and iterations for sanitizer
// runs (tools/run_experiments.sh); wall-clock keys in the JSON carry
// *_budget siblings so tools/check_perf.py gates on budgets instead of
// cross-machine-meaningless absolute comparisons. The latency, overhead
// and comparison keys keep their `pool_` prefix from when a second
// backend shared the document, so baseline leaves stay comparable.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/bench_report.hpp"
#include "obs/runtime_probe.hpp"
#include "runtime/crosscheck.hpp"
#include "runtime/fleet.hpp"
#include "util/table.hpp"

namespace dynvote::runtime {
namespace {

/// Records each process's latest formation time (transport microseconds)
/// from its worker, listening on every process's trace sink (each written
/// only by the worker that owns the process); the fleet's quiesce barrier
/// publishes the slots back to the bench thread.
class FormationClock : public obs::TraceListener {
 public:
  explicit FormationClock(std::size_t n) : formed_at_(n) {}

  /// Listens on each of the fleet's process sinks; call before start().
  void listen(RuntimeFleet& fleet) {
    for (std::uint32_t i = 0; i < formed_at_.size(); ++i) {
      fleet.transport().trace(ProcessId(i)).add_listener(*this);
    }
  }

  void note(const obs::TraceEvent& e) override {
    if (e.kind != obs::TraceEventKind::kSessionFormed) return;
    formed_at_[e.a.value()].store(e.time, std::memory_order_relaxed);
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

struct MeasureOut {
  std::vector<std::uint64_t> latencies;  // one per reconfiguration, us
  std::uint64_t digest = 0;              // outcome digest after stop
  /// Probes-only: one attributed window per reconfiguration, and the
  /// final ring snapshot the windows were attributed on.
  std::vector<obs::ReconfigWindow> windows;
  std::vector<obs::ThreadProbeLog> logs;
};

/// The churn every timed cell runs, `cycles` times: split into the
/// majority {0..n/2} and the minority, then merge everyone back. Each
/// event's first group is the component that forms the new primary.
std::vector<ScheduleEvent> churn_script(std::uint32_t n, int cycles) {
  ScheduleEvent partition;
  partition.kind = ScheduleEvent::Kind::kPartition;
  partition.groups.resize(2);
  for (std::uint32_t i = 0; i < n; ++i) {
    partition.groups[i <= n / 2 ? 0 : 1].insert(ProcessId(i));
  }
  ScheduleEvent merge;
  merge.kind = ScheduleEvent::Kind::kMerge;
  merge.groups = {ProcessSet::range(n)};
  std::vector<ScheduleEvent> script;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    script.push_back(partition);
    script.push_back(merge);
  }
  return script;
}

/// One churn run on the pool at `workers` (0 = hardware_concurrency).
/// With `collect_windows` (requires probes) the rings are snapshotted
/// after every reconfiguration and the window attributed on the lane of
/// its critical process's worker. Snapshots must be per-cycle because
/// the rings overwrite in place, so waiting until the end could lose
/// the early windows' entries.
MeasureOut measure(ProtocolKind kind, std::uint32_t n, int cycles, bool probes,
                   bool collect_windows, std::uint32_t workers = 0) {
  FleetOptions options;
  options.kind = kind;
  options.n = n;
  options.runtime.probes = probes;
  options.workers = workers;
  // Timed phase: production persistence. The WAL replay audit re-runs
  // recovery after every persist; it stays on in the DES replay each
  // cell is checked against.
  options.config.persistence.cross_check = false;
  FormationClock clock(n);  // outlives the fleet whose sinks it listens on
  RuntimeFleet fleet(options);
  clock.listen(fleet);
  fleet.start();

  MeasureOut out;
  out.latencies.reserve(static_cast<std::size_t>(cycles) * 2);
  for (const ScheduleEvent& event : churn_script(n, cycles)) {
    const ProcessSet& forming = event.groups[0];
    const std::uint64_t t0 = fleet.transport().now();
    apply_event(fleet, event);
    const std::uint64_t formed = clock.formed_by(forming, t0);
    if (formed == 0) continue;
    out.latencies.push_back(formed - t0);
    if (!collect_windows) continue;
    obs::ReconfigWindow window;
    window.verb =
        event.kind == ScheduleEvent::Kind::kMerge ? "merge" : "partition";
    window.t0_ns = t0 * 1000;
    window.t1_ns = formed * 1000;
    window.critical_thread =
        fleet.transport().lane_of(ProcessId(clock.critical(forming)));
    out.logs = fleet.probe_logs();
    window.phases = attribute_window(out.logs[window.critical_thread].entries,
                                     window.t0_ns, window.t1_ns);
    out.windows.push_back(std::move(window));
  }
  fleet.stop();
  out.digest = fleet.outcome_digest();
  return out;
}

struct ScaleRow {
  std::uint32_t n = 0;
  std::uint32_t workers = 0;
  std::size_t groups = 0;
  std::size_t samples = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  double formed_per_sec = 0;
  double setup_ms = 0;
};

/// Fleet-width scaling: n up to 1024 processes over W workers.
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
  options.workers = 0;  // hardware_concurrency, clamped to [1, n]
  options.config.persistence.cross_check = false;  // timed: no WAL audit
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

  // (a) Set-up: build the fleet, start it (forming the n-member
  // session) and cascade the primary down outside the timed region: each
  // step keeps floor(s/2)+1 members of the previous session, the one
  // component that can re-form. At n = 64 a set-up takes about 2 ms, so
  // one timing is at the mercy of the host: the row reports the median
  // of three set-ups, and the churn runs on the last one's fleet.
  std::uint32_t quorum = n;
  std::vector<double> setups_ms;
  std::unique_ptr<FormationClock> clock;
  std::unique_ptr<RuntimeFleet> fleet;
  for (int setup = 0; setup < 3; ++setup) {
    fleet.reset();  // before the clock its sinks listen to
    const auto setup0 = std::chrono::steady_clock::now();
    clock = std::make_unique<FormationClock>(n);
    fleet = std::make_unique<RuntimeFleet>(options);
    clock->listen(*fleet);
    fleet->start();
    quorum = n;
    while (quorum > kGroup + 1) {
      quorum = quorum / 2 + 1;
      fleet->partition(carve(0, quorum));
    }
    setups_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - setup0)
                            .count());
  }
  std::sort(setups_ms.begin(), setups_ms.end());

  ScaleRow row;
  row.n = n;
  row.workers = fleet->transport().workers();
  row.groups = 1 + (n - quorum + kGroup - 1) / kGroup;
  row.setup_ms = setups_ms[1];

  // (b) Timed churn: alternate the quorum between {0..q-1} and {1..q}.
  // Each is a majority (all but one member) of the session the other
  // formed, so the lineage hands over forever.
  std::vector<std::uint64_t> latencies;
  latencies.reserve(static_cast<std::size_t>(cycles) * 2);
  const auto wall0 = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const std::uint32_t lo : {1u, 0u}) {
      const std::vector<ProcessSet> groups = carve(lo, lo + quorum);
      const std::uint64_t t0 = fleet->transport().now();
      fleet->partition(groups);
      const std::uint64_t formed = clock->formed_by(groups[0], t0);
      if (formed != 0) latencies.push_back(formed - t0);
    }
  }
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  fleet->stop();

  row.samples = latencies.size();
  row.p50_us = percentile(latencies, 50);
  row.p99_us = percentile(latencies, 99);
  row.formed_per_sec =
      wall_sec > 0 ? static_cast<double>(latencies.size()) / wall_sec : 0;
  return row;
}

using PhaseField = std::uint64_t obs::PhaseBreakdown::*;

/// One protocol's attributed reconfiguration windows (phase 2).
struct PhaseRun {
  ProtocolKind kind;
  std::vector<obs::ReconfigWindow> windows;

  /// One sample of `field` per window.
  [[nodiscard]] std::vector<std::uint64_t> samples(PhaseField field) const {
    std::vector<std::uint64_t> out;
    for (const obs::ReconfigWindow& w : windows) out.push_back(w.phases.*field);
    return out;
  }

  /// `field` summed over the windows, as a fraction of their wall time.
  [[nodiscard]] double frac(PhaseField field) const {
    std::uint64_t part = 0;
    std::uint64_t wall = 0;
    for (const obs::ReconfigWindow& w : windows) {
      part += w.phases.*field;
      wall += w.phases.wall_ns;
    }
    return wall == 0 ? 0.0
                     : static_cast<double>(part) / static_cast<double>(wall);
  }
};

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

  // ---- phase 1: reconfiguration latency ------------------------------
  const std::vector<std::uint32_t> widths =
      quick ? std::vector<std::uint32_t>{4, 8}
            : std::vector<std::uint32_t>{4, 8, 16, 32};
  const int cycles = quick ? 3 : 12;
  const std::vector<ProtocolKind> kinds = {ProtocolKind::kBasic,
                                           ProtocolKind::kOptimized,
                                           ProtocolKind::kThreePhaseRecovery};

  std::printf("reconfiguration latency, pool at W = hardware_concurrency "
              "(%d partition+merge cycles)\n",
              cycles);
  Table pool_table(
      {"protocol", "n", "samples", "p50 us", "p99 us", "digest vs DES"});
  JsonValue pool_latency_rows = JsonValue::array();
  std::vector<std::uint64_t> pool_optimized_all;
  std::vector<std::uint64_t> pool_three_phase_all;
  bool pool_digests_match = true;
  for (ProtocolKind kind : kinds) {
    for (std::uint32_t n : widths) {
      const MeasureOut cell =
          measure(kind, n, cycles, /*probes=*/false, /*collect_windows=*/false);
      // The DES replays the cell's script: the transcripts must agree
      // byte for byte, and C1 must hold at every step.
      bool c1 = true;
      const bool match =
          cell.digest ==
              fnv1a64(des_summary(kind, n, /*seed=*/1,
                                  churn_script(n, cycles), c1)) &&
          c1;
      pool_digests_match &= match;
      const std::uint64_t p50 = percentile(cell.latencies, 50);
      const std::uint64_t p99 = percentile(cell.latencies, 99);
      pool_table.add_row({to_string(kind), std::to_string(n),
                          std::to_string(cell.latencies.size()),
                          std::to_string(p50), std::to_string(p99),
                          match ? "equal" : "DIVERGED"});
      JsonValue row = JsonValue::object();
      row.set("protocol", JsonValue(to_string(kind)));
      row.set("n", JsonValue(std::uint64_t{n}));
      row.set("samples", JsonValue(std::uint64_t{cell.latencies.size()}));
      // Wall-clock values vary across machines: each key carries a budget
      // sibling so tools/check_perf.py gates on the budget, not the value.
      row.set("p50_us", JsonValue(p50));
      row.set("p50_us_budget", JsonValue(std::uint64_t{2000000}));
      row.set("p99_us", JsonValue(p99));
      row.set("p99_us_budget", JsonValue(std::uint64_t{10000000}));
      pool_latency_rows.push_back(std::move(row));
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
  std::printf("C5 in wall-clock: optimized p50 %llu us vs three-phase "
              "recovery p50 %llu us -> %s; per-cell digests %s\n",
              static_cast<unsigned long long>(pool_optimized_p50),
              static_cast<unsigned long long>(pool_three_phase_p50),
              pool_optimized_faster ? "2-round protocol is faster"
                                    : "VIOLATION: 5-round protocol won",
              pool_digests_match ? "all equal the DES" : "DIVERGED");

  // ---- phase 2: where the reconfiguration microseconds go ------------
  const std::uint32_t phase_n = quick ? 4 : 8;
  const int phase_cycles = quick ? 3 : 8;
  std::printf("\nphase breakdown, probes on (n=%u on W=%u workers, one "
              "process per worker; %d cycles, attributed on the "
              "last-forming process's worker)\n",
              phase_n, phase_n, phase_cycles);
  Table phase_table({"protocol", "reconfigs", "wall p50 us", "queued %",
                     "parked %", "exec %", "unattr %"});
  std::vector<PhaseRun> phase_rows;
  bool phases_ok = true;
  std::vector<obs::ReconfigWindow> flagship_windows;
  std::vector<obs::ThreadProbeLog> flagship_logs;
  for (ProtocolKind kind : kinds) {
    MeasureOut probed =
        measure(kind, phase_n, phase_cycles, /*probes=*/true,
                /*collect_windows=*/true, /*workers=*/phase_n);
    const PhaseRun& run =
        phase_rows.emplace_back(PhaseRun{kind, std::move(probed.windows)});
    auto pct = [&run](PhaseField field) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.1f", run.frac(field) * 100.0);
      return std::string(buf);
    };
    phase_table.add_row(
        {to_string(kind), std::to_string(run.windows.size()),
         std::to_string(percentile(run.samples(&obs::PhaseBreakdown::wall_ns),
                                   50) /
                        1000),
         pct(&obs::PhaseBreakdown::queued_ns),
         pct(&obs::PhaseBreakdown::parked_ns),
         pct(&obs::PhaseBreakdown::executing_ns),
         pct(&obs::PhaseBreakdown::unattributed_ns)});
    phases_ok &= !run.windows.empty() &&
                 run.frac(&obs::PhaseBreakdown::unattributed_ns) <= 0.10;
    if (kind == ProtocolKind::kOptimized) {
      flagship_windows = run.windows;
      flagship_logs = std::move(probed.logs);
    }
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
  meta.workers = phase_n;
  const std::string probes_path = write_json_file(
      "runtime_probes.json",
      runtime_probes_json(meta, flagship_logs, flagship_windows));
  if (!probes_path.empty()) {
    std::printf("probe document -> %s\n", probes_path.c_str());
  }

  // ---- phase 3: what the probes cost ---------------------------------
  // Quick mode uses more cycles/reps per cell than the rest of the quick
  // bench: a sub-millisecond cell is dominated by scheduler-dependent
  // CPU-time noise on small hosts, and the min-of-pairs estimator needs
  // enough pairs for one clean one.
  const int overhead_cycles = quick ? 6 : 4;
  const auto [pool_overhead, pool_overhead_digests_equal] = paired_overhead(
      quick ? 6 : 5, [phase_n, overhead_cycles](bool probes) {
        return measure(ProtocolKind::kOptimized, phase_n, overhead_cycles,
                       probes, /*collect_windows=*/false)
            .digest;
      });
  const bool pool_overhead_ok = pool_overhead < 0.05 &&
                                pool_overhead_digests_equal;
  std::printf("probe overhead (min of adjacent-pair CPU ratios): %.2f%% "
              "(budget 5%%) digests %s -> %s\n",
              pool_overhead * 100.0,
              pool_overhead_digests_equal ? "equal" : "UNEQUAL",
              pool_overhead_ok ? "ok" : "FAIL");

  // ---- phase 4: fleet-width scaling ----------------------------------
  const std::vector<std::uint32_t> scale_widths =
      quick ? std::vector<std::uint32_t>{64}
            : std::vector<std::uint32_t>{64, 256, 1024};
  const int scale_cycles = quick ? 2 : 3;
  std::printf("\nfleet-width scaling (groups of 32, %d alternating-carve "
              "cycles)\n",
              scale_cycles);
  Table scale_table({"n", "workers", "groups", "samples", "setup ms",
                     "reconfig p50 us", "reconfig p99 us",
                     "formed quorums/s"});
  std::vector<ScaleRow> scale_rows;
  for (const std::uint32_t n : scale_widths) {
    const ScaleRow row = measure_scaling(n, scale_cycles);
    char rate[64];
    std::snprintf(rate, sizeof rate, "%.1f", row.formed_per_sec);
    char setup[64];
    std::snprintf(setup, sizeof setup, "%.1f", row.setup_ms);
    scale_table.add_row({std::to_string(row.n), std::to_string(row.workers),
                         std::to_string(row.groups),
                         std::to_string(row.samples), setup,
                         std::to_string(row.p50_us),
                         std::to_string(row.p99_us), rate});
    scale_rows.push_back(row);
  }
  std::printf("%s\n", scale_table.to_string().c_str());

  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("runtime"));
  result.set("pool_rows", std::move(pool_latency_rows));

  JsonValue phases = JsonValue::object();
  phases.set("n", JsonValue(std::uint64_t{phase_n}));
  phases.set("cycles", JsonValue(std::uint64_t{
                           static_cast<std::uint64_t>(phase_cycles)}));
  JsonValue phase_json_rows = JsonValue::array();
  for (const PhaseRun& run : phase_rows) {
    JsonValue row = JsonValue::object();
    row.set("protocol", JsonValue(to_string(run.kind)));
    row.set("reconfigs", JsonValue(std::uint64_t{run.windows.size()}));
    for (const auto& [key, field] :
         {std::pair{"wall_ns", &obs::PhaseBreakdown::wall_ns},
          std::pair{"queued_ns", &obs::PhaseBreakdown::queued_ns},
          std::pair{"parked_ns", &obs::PhaseBreakdown::parked_ns},
          std::pair{"executing_ns", &obs::PhaseBreakdown::executing_ns}}) {
      set_phase_quantiles(row, key, run.samples(field));
    }
    row.set("unattributed_frac",
            JsonValue(run.frac(&obs::PhaseBreakdown::unattributed_ns)));
    row.set("unattributed_frac_budget", JsonValue(0.10));
    phase_json_rows.push_back(std::move(row));
  }
  phases.set("rows", std::move(phase_json_rows));
  phases.set("all_within_budget", JsonValue(phases_ok));
  result.set("phases", std::move(phases));

  JsonValue overhead_json = JsonValue::object();
  overhead_json.set("pool_probe_overhead_frac", JsonValue(pool_overhead));
  overhead_json.set("pool_probe_overhead_frac_budget", JsonValue(0.05));
  overhead_json.set("pool_digests_equal",
                    JsonValue(pool_overhead_digests_equal));
  result.set("overhead", std::move(overhead_json));

  JsonValue pool_comparison = JsonValue::object();
  pool_comparison.set("optimized_p50_us", JsonValue(pool_optimized_p50));
  pool_comparison.set("optimized_p50_us_budget",
                      JsonValue(std::uint64_t{2000000}));
  pool_comparison.set("three_phase_p50_us", JsonValue(pool_three_phase_p50));
  pool_comparison.set("three_phase_p50_us_budget",
                      JsonValue(std::uint64_t{10000000}));
  pool_comparison.set("optimized_faster", JsonValue(pool_optimized_faster));
  pool_comparison.set("digests_match_des", JsonValue(pool_digests_match));
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
    // Banded against the baseline (no budget): construction, start and
    // the cascade re-form sessions of up to n members.
    json_row.set("setup_ms", JsonValue(row.setup_ms));
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

  return pool_optimized_faster && pool_digests_match && phases_ok &&
                 pool_overhead_ok
             ? 0
             : 1;
}
