// Scale bench — simulator throughput across cluster sizes, and the
// parallel seed-sweep harness exercised end to end.
//
// For each n the same random failure schedules run through the sweep
// pool (harness/sweep.hpp): once on 1 thread, then three times on the
// full pool. The per-seed digests (events executed, horizon, formed
// sessions, message/byte counts) of every pooled pass must match the
// serial pass exactly — the sweep's determinism contract — and the
// reported throughput is virtual events per second of the median pooled
// pass's wall time. Large n also pushes ProcessSet past
// its 256-id inline-bitset limit, so its extension words (heap-backed,
// copied with every set) are on the measured path.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/availability.hpp"
#include "harness/bench_report.hpp"
#include "harness/cluster.hpp"
#include "harness/schedule.hpp"
#include "harness/sweep.hpp"
#include "util/table.hpp"

namespace dynvote {
namespace {

/// 32 seeds per n up to 128. A single full-cluster session already costs
/// O(n^2) messages, so the n >= 256 rows take a 4-seed sample to keep
/// the bench under a few minutes on one core.
std::size_t seeds_for(std::uint32_t n) { return n <= 128 ? 32 : 4; }

/// Virtual duration of the failure schedule. Shorter for n >= 256: the
/// initial full-cluster session dominates there, and more topology
/// events just multiply an already-measured cost.
SimTime duration_for(std::uint32_t n) {
  return n <= 128 ? SimTime{600'000} : SimTime{120'000};
}

struct RunDigest {
  std::uint64_t executed = 0;  // simulator events run
  std::uint64_t horizon = 0;   // final virtual time
  std::uint64_t formed = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  bool operator==(const RunDigest&) const = default;
};

RunDigest run_cell(std::uint32_t n, std::uint64_t seed) {
  ScheduleOptions schedule_options;
  schedule_options.seed = 77'000 + seed;
  schedule_options.duration = duration_for(n);
  schedule_options.mean_event_gap = 120'000;
  const auto schedule =
      generate_schedule(ProcessSet::range(n), schedule_options);

  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = n;
  options.sim.seed = seed;
  // Throughput bench: skip the debug replay-equals-snapshot audit (it
  // re-reads O(state) per persist; bench_persistence measures its cost).
  options.config.persistence.cross_check = false;
  Cluster cluster(options);
  sim::Simulator& sim = cluster.sim();
  enqueue_schedule(cluster, schedule);
  cluster.merge();
  cluster.settle();

  RunDigest digest;
  digest.executed = sim.queue().executed();
  digest.horizon = sim.now();
  digest.formed = cluster.checker().formed_session_count();
  digest.messages = sim.network().stats().messages_sent;
  digest.bytes = sim.network().stats().bytes_sent;
  return digest;
}

}  // namespace
}  // namespace dynvote

int main() {
  using namespace dynvote;
  const std::size_t pool = sweep_thread_count(0);
  std::puts("Scale: simulator throughput by cluster size, serial vs sweep pool");
  std::printf("       pool = %zu thread(s); DYNVOTE_THREADS overrides\n\n",
              pool);

  Table table({"n", "seeds", "events", "serial ms", "pool ms", "speedup",
               "events/sec (pool)"});
  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("scale"));
  result.set("pool_threads", JsonValue(std::uint64_t{pool}));
  JsonValue rows = JsonValue::array();
  bool deterministic = true;

  for (std::uint32_t n : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    const std::size_t seeds = seeds_for(n);
    using Clock = std::chrono::steady_clock;
    const auto ms_since = [](Clock::time_point start) {
      return std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
    };
    const auto serial_start = Clock::now();
    const auto serial = sweep_map<RunDigest>(
        seeds, 1, [n](std::size_t i) { return run_cell(n, i); });
    const double serial_ms = ms_since(serial_start);

    // One pooled timing at n = 256 spreads wider than check_perf's band,
    // so the row reports the median of three pooled passes, each of
    // whose digests must equal the serial pass's.
    bool match = true;
    std::vector<double> pool_passes_ms;
    for (int pass = 0; pass < 3; ++pass) {
      const auto pooled_start = Clock::now();
      const auto pooled = sweep_map<RunDigest>(
          seeds, pool, [n](std::size_t i) { return run_cell(n, i); });
      pool_passes_ms.push_back(ms_since(pooled_start));
      match &= serial == pooled;
    }
    std::sort(pool_passes_ms.begin(), pool_passes_ms.end());
    const double pool_ms = pool_passes_ms[1];
    deterministic &= match;

    std::uint64_t events = 0;
    for (const RunDigest& d : serial) events += d.executed;
    const double speedup = pool_ms > 0 ? serial_ms / pool_ms : 0;
    const double events_per_sec =
        pool_ms > 0 ? static_cast<double>(events) * 1000.0 / pool_ms : 0;

    char speedup_text[32];
    std::snprintf(speedup_text, sizeof speedup_text, "%.2fx%s", speedup,
                  match ? "" : " MISMATCH");
    char eps_text[32];
    std::snprintf(eps_text, sizeof eps_text, "%.0f", events_per_sec);
    table.add_row({std::to_string(n), std::to_string(seeds),
                   std::to_string(events),
                   std::to_string(static_cast<long long>(serial_ms)),
                   std::to_string(static_cast<long long>(pool_ms)),
                   speedup_text, eps_text});

    JsonValue row = JsonValue::object();
    row.set("n", JsonValue(std::uint64_t{n}));
    row.set("seeds", JsonValue(std::uint64_t{seeds}));
    row.set("events", JsonValue(events));
    row.set("serial_ms", JsonValue(serial_ms));
    row.set("pool_ms", JsonValue(pool_ms));
    row.set("speedup", JsonValue(speedup));
    row.set("events_per_sec", JsonValue(events_per_sec));
    row.set("digests_match", JsonValue(match));
    rows.push_back(std::move(row));
  }

  result.set("rows", std::move(rows));
  result.set("deterministic", JsonValue(deterministic));
  std::printf("%s\n", table.to_string().c_str());
  if (!deterministic) {
    std::puts("FAIL: pooled digests diverge from the serial pass");
  } else {
    std::puts("Per-seed digests identical between the serial and pooled passes.");
  }
  emit_bench_result("scale", result);
  return deterministic ? 0 : 1;
}
