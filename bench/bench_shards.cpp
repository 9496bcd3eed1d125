// Shard bench — the multi-group service at four-digit fleet sizes.
//
// Each row runs a sharded fleet (src/shard/): hundreds of independent
// primary-component groups over one shared simulator, with machines
// hosting replicas of many groups and every fault cutting machines —
// so one fleet event reconfigures all hosted groups at once. Each seed
// drives a fixed schedule of correlated partitions, a machine
// crash/recover cycle, and key-value traffic routed by the ShardMap,
// then audits every group for split-brain evidence (none, ever, for the
// consistent protocol).
//
// Reported: aggregate formed-quorums/sec (distinct formed sessions
// across all groups per wall second of the pooled pass) and the p50/p99
// reconfiguration latency in virtual ticks (fleet fault -> first
// formation in each affected group), estimated from the merged
// power-of-two histograms (obs::Histogram::quantile) the telemetry
// layer maintains per group. Every seed runs twice through the sweep
// pool (1 thread, then the full pool); the per-seed digests — the
// fleet-telemetry JSON included — must be byte-identical: the sweep
// determinism contract at fleet scale.
//
// Two extra sections exercise the telemetry layer itself:
//   * overhead: the small shape runs with telemetry on and off in
//     adjacent pairs (paired_overhead, harness/bench_report.hpp:
//     min-of-pairs CPU ratio, identical digests required in every
//     pair); the overhead must stay within the 5% budget that
//     tools/check_perf.py gates via telemetry_overhead_frac_budget;
//   * violation demo: a two-group fleet on the INCONSISTENT naive
//     protocol replays the paper's section-4.5 scenario in group 0,
//     which must produce a consistency violation and a flight-recorder
//     post-mortem (exported for dvtrace fleet / --group).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/bench_report.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "harness/trace_replay.hpp"
#include "obs/metrics.hpp"
#include "shard/sharded_fleet.hpp"
#include "shard/sharded_kv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dynvote {
namespace {

struct FleetShape {
  std::uint32_t groups;
  std::uint32_t group_size;
  std::uint32_t machines;
};

struct RunDigest {
  std::uint64_t executed = 0;
  std::uint64_t horizon = 0;
  std::uint64_t formed = 0;
  std::uint64_t messages = 0;
  std::uint64_t accepted_writes = 0;
  std::uint64_t rejected_writes = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t latency_sum = 0;  // virtual ticks
  std::uint64_t divergences = 0;
  std::uint64_t violations = 0;

  bool operator==(const RunDigest&) const = default;
};

struct RunResult {
  RunDigest digest;
  /// Reconfiguration latencies folded into the power-of-two histogram
  /// the row percentiles are estimated from; merging across seeds in
  /// index order keeps the estimate deterministic at any pool width.
  obs::Histogram reconfig_hist;
  /// The full fleet-telemetry document (empty when telemetry is off).
  /// Part of the digest comparison: the export itself must be
  /// byte-identical between the serial and pooled passes.
  std::string telemetry;

  bool operator==(const RunResult&) const = default;
};

/// A random disjoint machine partition covering every machine: shuffle,
/// then cut into `sides` contiguous chunks.
shard::ShardedFleet::MachinePartition random_partition(Rng& rng,
                                                       std::uint32_t machines,
                                                       std::uint32_t sides) {
  std::vector<std::uint32_t> order(machines);
  for (std::uint32_t m = 0; m < machines; ++m) order[m] = m;
  for (std::uint32_t i = machines - 1; i > 0; --i) {
    const auto j = static_cast<std::uint32_t>(rng.next_below(i + 1));
    std::swap(order[i], order[j]);
  }
  shard::ShardedFleet::MachinePartition out(sides);
  for (std::uint32_t m = 0; m < machines; ++m) {
    out[m % sides].push_back(order[m]);
  }
  return out;
}

RunResult run_cell(const FleetShape& shape, std::uint64_t seed,
                   bool telemetry, int rounds = 4) {
  shard::ShardedFleetOptions options;
  options.num_groups = shape.groups;
  options.group_size = shape.group_size;
  options.num_machines = shape.machines;
  options.kind = ProtocolKind::kOptimized;
  options.sim.seed = 91'000 + seed;
  options.telemetry.enabled = telemetry;
  shard::ShardedFleet fleet(options);
  shard::ShardedKv kv(fleet);
  Rng schedule_rng(13'000 + seed);

  fleet.start();

  constexpr int kWritesPerRound = 64;
  std::uint64_t next_key = 0;
  for (int round = 0; round < rounds; ++round) {
    // Correlated cut: two or three sides, hitting every machine and
    // therefore every hosted group at once.
    const auto sides = 2 + (round % 2);
    fleet.partition_fleet(random_partition(
        schedule_rng, shape.machines, static_cast<std::uint32_t>(sides)));
    fleet.settle();
    for (int w = 0; w < kWritesPerRound; ++w) {
      kv.write("key-" + std::to_string(next_key++),
               "r" + std::to_string(round));
    }
    if (round == 1) {
      // One machine dies mid-partition: every group with a replica on it
      // reconfigures again.
      const auto machine = static_cast<std::uint32_t>(
          schedule_rng.next_below(shape.machines));
      fleet.crash_machine(machine);
      fleet.settle();
      fleet.recover_machine(machine);
      fleet.settle();
    }
    fleet.merge_fleet();
    fleet.settle();
    kv.sync_primaries();
  }

  RunResult result;
  for (const double sample : fleet.reconfig_latencies()) {
    result.reconfig_hist.observe(static_cast<std::uint64_t>(sample));
  }
  if (telemetry) result.telemetry = fleet.telemetry_json().dump();
  RunDigest& digest = result.digest;
  digest.executed = fleet.sim().queue().executed();
  digest.horizon = fleet.sim().now();
  digest.formed = fleet.total_formed_sessions();
  digest.messages = fleet.sim().network().stats().messages_sent;
  digest.accepted_writes = kv.accepted_writes();
  digest.rejected_writes = kv.rejected_writes();
  digest.latency_count = fleet.reconfig_latencies().size();
  for (const double sample : fleet.reconfig_latencies()) {
    digest.latency_sum += static_cast<std::uint64_t>(sample);
  }
  digest.divergences = kv.audit().size();
  // Order checks are O(k^3) in formed sessions per group; groups are
  // small, so the default limit is fine.
  digest.violations = fleet.check_all_groups().size();
  return result;
}

struct ViolationDemo {
  std::uint64_t violations = 0;
  std::size_t postmortems = 0;
  bool ok = false;
};

/// The paper's section-4.5 split-brain scenario, staged inside group 0
/// of a two-group fleet on the deliberately INCONSISTENT naive
/// protocol: replica 2 misses the closing info messages of the
/// {0,1,2}-side session, then the cut moves and both {0,1} and {2,3,4}
/// go primary. The consistency checker must flag it and the group's
/// flight recorder must dump a post-mortem whose causal chains dvtrace
/// fleet renders. Group 1 reconfigures normally throughout — its ring
/// stays out of the post-mortem, which is the per-group isolation the
/// recorder exists for.
ViolationDemo run_violation_demo() {
  shard::ShardedFleetOptions options;
  options.num_groups = 2;
  options.group_size = 5;
  options.num_machines = 5;
  options.kind = ProtocolKind::kNaiveDynamic;
  options.sim.seed = 424'242;
  shard::ShardedFleet fleet(options);
  FaultInjector faults(fleet.sim().network());
  fleet.start();

  // Machine m hosts group-0 replica m, so the machine cuts below
  // reproduce the cluster-level recipe exactly for group 0.
  const int rule = faults.drop_to(ProcessId(2), "dv.info", 2);
  fleet.partition_fleet({{0, 1, 2}, {3, 4}});
  fleet.settle();
  const bool dropped = faults.dropped(rule) == 2;
  faults.clear();
  fleet.partition_fleet({{0, 1}, {2, 3, 4}});
  fleet.settle();

  ViolationDemo demo;
  demo.violations = fleet.check_all_groups().size();
  demo.postmortems = fleet.check_and_record_postmortems();
  demo.ok = dropped && demo.violations > 0 && demo.postmortems > 0;
  write_json_file("fleet_violation_telemetry.json", fleet.telemetry_json());

  // Sharded trace export (meta carries the fleet shape), the input for
  // dvtrace --group: per-group replay of the same evidence.
  write_json_file("fleet_trace.json",
                  trace_to_json(fleet.cluster().trace_meta(),
                                fleet.sim().trace()));
  return demo;
}

}  // namespace
}  // namespace dynvote

int main() {
  using namespace dynvote;
  const std::size_t pool = sweep_thread_count(0);
  // Quick mode trims to the small shape with 2 seeds: the sanitizer
  // passes in run_experiments.sh use it to race/overflow-check the
  // multi-group path without paying the four-digit row under ASan.
  // Wall-time assertions are also waived there — sanitizer slowdowns
  // swamp the telemetry overhead being measured.
  const bool quick = std::getenv("DYNVOTE_SHARDS_QUICK") != nullptr;
  std::puts("Shards: multi-group fleet throughput, serial vs sweep pool");
  std::printf("       pool = %zu thread(s); DYNVOTE_THREADS overrides, "
              "DYNVOTE_SHARDS_QUICK=1 trims for sanitizer runs\n\n",
              pool);

  std::vector<FleetShape> shapes = {
      {32, 8, 16},    // n = 256
      {128, 8, 32},   // n = 1024 — the four-digit flagship row
  };
  if (quick) shapes.resize(1);
  const std::size_t seeds_per_shape = quick ? 2 : 4;

  Table table({"groups", "gsize", "machines", "n", "seeds", "formed",
               "formed/sec", "p50 reconf", "p99 reconf", "pool ms",
               "speedup"});
  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("shards"));
  result.set("pool_threads", JsonValue(std::uint64_t{pool}));
  JsonValue rows = JsonValue::array();
  bool deterministic = true;
  bool clean = true;

  for (const FleetShape& shape : shapes) {
    const std::size_t seeds = seeds_per_shape;
    using Clock = std::chrono::steady_clock;
    const auto serial_start = Clock::now();
    const auto serial = sweep_map<RunResult>(
        seeds, 1,
        [&shape](std::size_t i) { return run_cell(shape, i, true); });
    const auto serial_end = Clock::now();
    const auto pooled = sweep_map<RunResult>(
        seeds, pool,
        [&shape](std::size_t i) { return run_cell(shape, i, true); });
    const auto pooled_end = Clock::now();

    const bool match = serial == pooled;
    deterministic &= match;

    std::uint64_t formed = 0;
    std::uint64_t divergences = 0;
    std::uint64_t violations = 0;
    std::uint64_t accepted = 0;
    obs::Histogram latency;
    for (const RunResult& r : pooled) {
      formed += r.digest.formed;
      divergences += r.digest.divergences;
      violations += r.digest.violations;
      accepted += r.digest.accepted_writes;
      latency.merge_from(r.reconfig_hist);
    }
    clean &= divergences == 0 && violations == 0;

    const double serial_ms =
        std::chrono::duration<double, std::milli>(serial_end - serial_start)
            .count();
    const double pool_ms =
        std::chrono::duration<double, std::milli>(pooled_end - serial_end)
            .count();
    const double speedup = pool_ms > 0 ? serial_ms / pool_ms : 0;
    const double formed_per_sec =
        pool_ms > 0 ? static_cast<double>(formed) * 1000.0 / pool_ms : 0;
    const double p50 = latency.quantile(0.50);
    const double p99 = latency.quantile(0.99);

    char speedup_text[32];
    std::snprintf(speedup_text, sizeof speedup_text, "%.2fx%s", speedup,
                  match ? "" : " MISMATCH");
    const std::uint32_t n = shape.groups * shape.group_size;
    table.add_row({std::to_string(shape.groups),
                   std::to_string(shape.group_size),
                   std::to_string(shape.machines), std::to_string(n),
                   std::to_string(seeds), std::to_string(formed),
                   format_double(formed_per_sec, 0), format_double(p50, 0),
                   format_double(p99, 0),
                   std::to_string(static_cast<long long>(pool_ms)),
                   speedup_text});

    JsonValue row = JsonValue::object();
    row.set("groups", JsonValue(std::uint64_t{shape.groups}));
    row.set("group_size", JsonValue(std::uint64_t{shape.group_size}));
    row.set("machines", JsonValue(std::uint64_t{shape.machines}));
    row.set("n", JsonValue(std::uint64_t{n}));
    row.set("seeds", JsonValue(std::uint64_t{seeds}));
    row.set("formed", JsonValue(formed));
    row.set("formed_per_sec", JsonValue(formed_per_sec));
    row.set("reconfig_p50_ticks", JsonValue(p50));
    row.set("reconfig_p99_ticks", JsonValue(p99));
    row.set("reconfig_samples", JsonValue(latency.count()));
    row.set("accepted_writes", JsonValue(accepted));
    row.set("divergences", JsonValue(divergences));
    row.set("violations", JsonValue(violations));
    row.set("serial_ms", JsonValue(serial_ms));
    row.set("pool_ms", JsonValue(pool_ms));
    row.set("speedup", JsonValue(speedup));
    row.set("digests_match", JsonValue(match));
    rows.push_back(std::move(row));

    // The flagship shape's seed-0 telemetry is the exported artifact
    // dvtrace fleet renders in run_experiments.sh. In quick mode the
    // small shape stands in.
    if ((quick && shape.groups == shapes.back().groups) ||
        shape.groups == 128) {
      write_json_file("fleet_telemetry.json",
                      JsonValue::parse(pooled.front().telemetry));
    }
  }

  result.set("rows", std::move(rows));
  result.set("deterministic", JsonValue(deterministic));
  result.set("clean", JsonValue(clean));

  // Telemetry overhead: the whole layer must stay within its 5% budget
  // (check_perf.py gates the exported fraction against the budget key).
  // Adjacent on/off pairs of long cells (24 fault rounds) on the small
  // shape, identical simulation digests required. Quick mode keeps the
  // digest cross-check but trims the timing work: sanitizer runs waive
  // the budget anyway.
  const int rounds = quick ? 6 : 24;
  const auto [overhead, modes_match] =
      paired_overhead(quick ? 2 : 6, [&shapes, rounds](bool telemetry) {
        return run_cell(shapes.front(), 0, telemetry, rounds).digest;
      });
  constexpr double kOverheadBudget = 0.05;
  const bool overhead_ok = modes_match && (quick || overhead <= kOverheadBudget);
  result.set("telemetry_overhead_frac", JsonValue(overhead));
  result.set("telemetry_overhead_frac_budget", JsonValue(kOverheadBudget));
  result.set("telemetry_modes_digest_match", JsonValue(modes_match));
  std::printf("telemetry overhead: %.2f%% of CPU time (budget %.0f%%), "
              "digests %s across modes\n",
              overhead * 100.0, kOverheadBudget * 100.0,
              modes_match ? "identical" : "DIVERGED");

  // Violation demo: the flight recorder must turn an injected
  // split-brain into a post-mortem.
  const ViolationDemo demo = run_violation_demo();
  JsonValue demo_json = JsonValue::object();
  demo_json.set("violations", JsonValue(demo.violations));
  demo_json.set("postmortems", JsonValue(std::uint64_t{demo.postmortems}));
  demo_json.set("ok", JsonValue(demo.ok));
  result.set("violation_demo", std::move(demo_json));
  std::printf("violation demo: %llu violation(s), %zu post-mortem(s)%s\n",
              static_cast<unsigned long long>(demo.violations),
              demo.postmortems, demo.ok ? "" : " — FAIL");

  std::printf("%s\n", table.to_string().c_str());
  if (!deterministic) {
    std::puts("FAIL: pooled digests diverge from the serial pass");
  } else if (!clean) {
    std::puts("FAIL: a consistent protocol produced divergences/violations");
  } else if (!overhead_ok) {
    std::puts("FAIL: telemetry overhead breached its budget or perturbed "
              "the simulation");
  } else if (!demo.ok) {
    std::puts("FAIL: injected violation produced no flight-recorder "
              "post-mortem");
  } else {
    std::puts(
        "Per-seed digests identical between passes; every group audit clean.");
  }
  emit_bench_result("shards", result);
  return deterministic && clean && overhead_ok && demo.ok ? 0 : 1;
}
