// Persistence bench — stable-storage cost of snapshot-per-persist vs the
// delta WAL (dv/wal.hpp), and the price of its replay cross-check.
//
// For each n the same deterministic churn schedules run three times over
// the optimized protocol: persistence mode kSnapshot, kWal, and kWal
// with the replay-equals-snapshot cross-check left on (the test-suite
// default). Protocol outcomes must be identical across modes — the
// persistence layer schedules no simulator events and sends no messages
// — so the digest columns (events, formed) double as a self-check, and
// the storage columns isolate the write-amplification difference.
//
// The WAL's promise is bytes/step ~ O(delta) instead of O(state): the
// bench fails (exit 1) if the WAL does not cut stable-storage bytes per
// persist by at least 5x at n = 128. The gate counts only the bytes the
// persists wrote: every process also makes one full-state write at
// construction (a checkpoint in WAL mode, a snapshot in snapshot mode),
// which is reported as construction_bytes and left out of the ratio.
// bytes_per_step still divides all stable-storage bytes by the persists.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "harness/availability.hpp"
#include "harness/bench_report.hpp"
#include "harness/cluster.hpp"
#include "harness/schedule.hpp"
#include "util/table.hpp"

namespace dynvote {
namespace {

constexpr std::size_t kSeeds = 4;

struct CellResult {
  std::uint64_t executed = 0;   // simulator events (outcome digest)
  std::uint64_t formed = 0;     // formed sessions (outcome digest)
  std::uint64_t writes = 0;     // StableStorage::writes()
  std::uint64_t bytes = 0;      // StableStorage::bytes_written()
  std::uint64_t construction_bytes = 0;  // of `bytes`, written by Cluster()
  std::uint64_t persists = 0;   // WalPersistence commits
  std::uint64_t appends = 0;    // WAL batches appended
  std::uint64_t checkpoints = 0;

  CellResult& operator+=(const CellResult& other) {
    executed += other.executed;
    formed += other.formed;
    writes += other.writes;
    bytes += other.bytes;
    construction_bytes += other.construction_bytes;
    persists += other.persists;
    appends += other.appends;
    checkpoints += other.checkpoints;
    return *this;
  }
};

CellResult run_cell(std::uint32_t n, std::uint64_t seed,
                    const PersistenceOptions& persistence) {
  ScheduleOptions schedule_options;
  schedule_options.seed = 91'000 + seed;
  schedule_options.duration = SimTime{600'000};
  schedule_options.mean_event_gap = 120'000;
  const auto schedule =
      generate_schedule(ProcessSet::range(n), schedule_options);

  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = n;
  options.sim.seed = seed;
  options.config.persistence = persistence;
  Cluster cluster(options);
  sim::Simulator& sim = cluster.sim();
  CellResult result;
  for (ProcessId p : cluster.all_processes()) {
    result.construction_bytes += sim.storage(p).bytes_written();
  }
  enqueue_schedule(cluster, schedule);
  cluster.merge();
  cluster.settle();

  result.executed = sim.queue().executed();
  result.formed = cluster.checker().formed_session_count();
  for (ProcessId p : cluster.all_processes()) {
    const sim::StableStorage& storage = sim.storage(p);
    result.writes += storage.writes();
    result.bytes += storage.bytes_written();
  }
  const obs::MetricsRegistry& metrics = sim.metrics();
  result.persists = metrics.counter_value("dv.storage.persists");
  result.appends = metrics.counter_value("dv.storage.wal_appends");
  result.checkpoints = metrics.counter_value("dv.storage.checkpoints");
  return result;
}

struct Mode {
  const char* name;
  PersistenceOptions persistence;
};

}  // namespace
}  // namespace dynvote

int main() {
  using namespace dynvote;
  std::puts("Persistence: stable-storage cost, full snapshot vs delta WAL");
  std::puts("            (wal+check = WAL with the replay-equals-snapshot "
            "cross-check, the test-suite default)\n");

  const Mode modes[] = {
      {"snapshot",
       {.mode = PersistenceMode::kSnapshot, .cross_check = false}},
      {"wal", {.mode = PersistenceMode::kWal, .cross_check = false}},
      {"wal+check", {.mode = PersistenceMode::kWal, .cross_check = true}},
  };

  Table table({"n", "mode", "persists", "appends", "ckpts", "storage bytes",
               "ctor bytes", "bytes/step", "persist bytes/persist",
               "ns/persist"});
  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("persistence"));
  JsonValue rows = JsonValue::array();
  bool ok = true;

  for (std::uint32_t n : {8u, 32u, 128u}) {
    double bytes_per_step_snapshot = 0.0;
    double bytes_per_step_wal = 0.0;
    double persist_bytes_snapshot = 0.0;
    double persist_bytes_wal = 0.0;
    CellResult reference;  // outcome digest of the first mode

    for (std::size_t m = 0; m < std::size(modes); ++m) {
      const Mode& mode = modes[m];
      using Clock = std::chrono::steady_clock;
      const auto start = Clock::now();
      CellResult total;
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        total += run_cell(n, seed, mode.persistence);
      }
      const double wall_ns =
          std::chrono::duration<double, std::nano>(Clock::now() - start)
              .count();

      if (m == 0) {
        reference = total;
      } else if (total.executed != reference.executed ||
                 total.formed != reference.formed) {
        std::printf("FAIL: mode %s changed the protocol outcome "
                    "(events %llu vs %llu, formed %llu vs %llu)\n",
                    mode.name,
                    static_cast<unsigned long long>(total.executed),
                    static_cast<unsigned long long>(reference.executed),
                    static_cast<unsigned long long>(total.formed),
                    static_cast<unsigned long long>(reference.formed));
        ok = false;
      }

      const double steps = total.persists > 0
                               ? static_cast<double>(total.persists)
                               : 1.0;
      const double bytes_per_step = static_cast<double>(total.bytes) / steps;
      const double persist_bytes_per_persist =
          static_cast<double>(total.bytes - total.construction_bytes) / steps;
      const double ns_per_persist = wall_ns / steps;
      if (std::string(mode.name) == "snapshot") {
        bytes_per_step_snapshot = bytes_per_step;
        persist_bytes_snapshot = persist_bytes_per_persist;
      } else if (std::string(mode.name) == "wal") {
        bytes_per_step_wal = bytes_per_step;
        persist_bytes_wal = persist_bytes_per_persist;
      }

      char bps_text[32];
      std::snprintf(bps_text, sizeof bps_text, "%.1f", bytes_per_step);
      char ppp_text[32];
      std::snprintf(ppp_text, sizeof ppp_text, "%.1f",
                    persist_bytes_per_persist);
      char npp_text[32];
      std::snprintf(npp_text, sizeof npp_text, "%.0f", ns_per_persist);
      table.add_row({std::to_string(n), mode.name,
                     std::to_string(total.persists),
                     std::to_string(total.appends),
                     std::to_string(total.checkpoints),
                     std::to_string(total.bytes),
                     std::to_string(total.construction_bytes), bps_text,
                     ppp_text, npp_text});

      JsonValue row = JsonValue::object();
      row.set("n", JsonValue(std::uint64_t{n}));
      row.set("mode", JsonValue(mode.name));
      row.set("events", JsonValue(total.executed));
      row.set("formed", JsonValue(total.formed));
      row.set("storage_writes", JsonValue(total.writes));
      row.set("storage_bytes", JsonValue(total.bytes));
      row.set("construction_bytes", JsonValue(total.construction_bytes));
      row.set("persists", JsonValue(total.persists));
      row.set("wal_appends", JsonValue(total.appends));
      row.set("checkpoints", JsonValue(total.checkpoints));
      row.set("bytes_per_step", JsonValue(bytes_per_step));
      row.set("persist_bytes_per_persist",
              JsonValue(persist_bytes_per_persist));
      row.set("ns_per_persist", JsonValue(ns_per_persist));
      rows.push_back(std::move(row));
    }

    const double step_reduction =
        bytes_per_step_wal > 0 ? bytes_per_step_snapshot / bytes_per_step_wal
                               : 0.0;
    const double reduction = persist_bytes_wal > 0
                                 ? persist_bytes_snapshot / persist_bytes_wal
                                 : 0.0;
    std::printf("n=%3u: WAL cuts persist-written bytes/persist by %.1fx "
                "(all bytes/step: %.1fx)\n",
                n, reduction, step_reduction);
    JsonValue summary = JsonValue::object();
    summary.set("n", JsonValue(std::uint64_t{n}));
    summary.set("mode", JsonValue("reduction"));
    summary.set("bytes_per_step_reduction_x", JsonValue(step_reduction));
    summary.set("persist_bytes_reduction_x", JsonValue(reduction));
    rows.push_back(std::move(summary));
    if (n == 128 && reduction < 5.0) {
      std::printf("FAIL: expected >= 5x reduction at n=128, got %.1fx\n",
                  reduction);
      ok = false;
    }
  }

  result.set("rows", std::move(rows));
  result.set("ok", JsonValue(ok));
  std::printf("\n%s\n", table.to_string().c_str());
  emit_bench_result("persistence", result);
  return ok ? 0 : 1;
}
