// Experiment E7 — recovery without cold start (paper section 1: "our
// protocol recovers from situations in which the primary component was
// lost (e.g. when the primary component partitions into three minority
// groups) without requiring a cold start of the entire system").
//
// Three measurements:
//   (1) the primary splits into three minorities; pairs of fragments
//       re-merge — who recovers;
//   (2) the same three-way split happens DURING quorum formation (the
//       attempt round is lost) — separating ours from the blocking
//       class;
//   (3) full-cluster crash with stable storage intact, and with some
//       disks destroyed (paper footnote 4).
#include <cstdio>
#include <string>

#include "harness/bench_report.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "util/table.hpp"

namespace dynvote {
namespace {

constexpr std::uint32_t kN = 9;

const ProcessSet kFragA = ProcessSet::of({0, 1, 2});
const ProcessSet kFragB = ProcessSet::of({3, 4, 5});
const ProcessSet kFragC = ProcessSet::of({6, 7, 8});

std::string merge_outcome(ProtocolKind kind, bool fail_mid_formation,
                          const ProcessSet& merged) {
  ClusterOptions options;
  options.kind = kind;
  options.n = kN;
  options.sim.seed = 70;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  if (fail_mid_formation) {
    for (std::uint32_t p = 0; p < kN; ++p) {
      faults.drop_to(ProcessId(p), "dv.attempt", kN - 1);
    }
  }
  cluster.merge();
  cluster.settle();
  faults.clear();

  cluster.partition({kFragA, kFragB, kFragC});
  cluster.settle();
  if (cluster.live_primary().has_value()) return "?";  // unexpected

  std::vector<ProcessSet> components{merged};
  for (std::uint32_t p = 0; p < kN; ++p) {
    if (!merged.contains(ProcessId(p))) {
      components.push_back(ProcessSet{ProcessId(p)});
    }
  }
  cluster.partition(components);
  cluster.settle();
  const auto primary = cluster.live_primary();
  if (primary && primary->members == merged) return "recovered";
  if (cluster.observer().blocked() > 0) return "blocked";
  return "no";
}

std::string crash_outcome(ProtocolKind kind, std::uint32_t disks_destroyed) {
  ClusterOptions options;
  options.kind = kind;
  options.n = 5;
  options.sim.seed = 71;
  Cluster cluster(options);
  cluster.start();
  for (std::uint32_t p = 0; p < 5; ++p) {
    if (p < disks_destroyed) {
      cluster.sim().crash_and_destroy_disk(ProcessId(p));
    } else {
      cluster.crash(ProcessId(p));
    }
  }
  cluster.settle();
  for (std::uint32_t p = 0; p < 5; ++p) cluster.recover(ProcessId(p));
  cluster.merge();
  cluster.settle();
  return cluster.live_primary().has_value() ? "recovered" : "no";
}

}  // namespace
}  // namespace dynvote

int main() {
  using namespace dynvote;
  std::printf("E7: recovery after losing the primary component (n = %u)\n\n", kN);

  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("E7"));
  result.set("n", JsonValue(std::uint64_t{kN}));
  JsonValue merge_phases = JsonValue::array();
  for (bool mid_formation : {false, true}) {
    std::printf("primary split into three minorities %s:\n",
                mid_formation ? "DURING quorum formation (attempts lost)"
                              : "after a formed quorum");
    Table table({"protocol", "A+B merge (6/9)", "A+C merge (6/9)",
                 "full merge (9/9)"});
    JsonValue rows = JsonValue::array();
    for (ProtocolKind kind :
         {ProtocolKind::kBasic, ProtocolKind::kOptimized,
          ProtocolKind::kBlockingDynamic, ProtocolKind::kStaticMajority}) {
      const std::string ab =
          merge_outcome(kind, mid_formation, kFragA.set_union(kFragB));
      const std::string ac =
          merge_outcome(kind, mid_formation, kFragA.set_union(kFragC));
      const std::string full =
          merge_outcome(kind, mid_formation, ProcessSet::range(kN));
      table.add_row({to_string(kind), ab, ac, full});
      JsonValue row = JsonValue::object();
      row.set("protocol", JsonValue(to_string(kind)));
      row.set("ab_merge", JsonValue(ab));
      row.set("ac_merge", JsonValue(ac));
      row.set("full_merge", JsonValue(full));
      rows.push_back(std::move(row));
    }
    std::printf("%s\n", table.to_string().c_str());
    JsonValue phase = JsonValue::object();
    phase.set("mid_formation", JsonValue(mid_formation));
    phase.set("rows", std::move(rows));
    merge_phases.push_back(std::move(phase));
  }
  result.set("merge_recovery", std::move(merge_phases));

  std::puts("total cluster crash and restart (n = 5, stable storage):");
  Table crash_table({"protocol", "all disks intact", "2 disks destroyed",
                     "all disks destroyed"});
  JsonValue crash_rows = JsonValue::array();
  for (ProtocolKind kind : {ProtocolKind::kBasic, ProtocolKind::kOptimized}) {
    const std::string intact = crash_outcome(kind, 0);
    const std::string two_lost = crash_outcome(kind, 2);
    const std::string all_lost = crash_outcome(kind, 5);
    crash_table.add_row({to_string(kind), intact, two_lost, all_lost});
    JsonValue row = JsonValue::object();
    row.set("protocol", JsonValue(to_string(kind)));
    row.set("disks_intact", JsonValue(intact));
    row.set("two_disks_destroyed", JsonValue(two_lost));
    row.set("all_disks_destroyed", JsonValue(all_lost));
    crash_rows.push_back(std::move(row));
  }
  result.set("crash_recovery", std::move(crash_rows));
  std::printf("%s\n", crash_table.to_string().c_str());

  std::puts("Paper expectation: after a clean split, any majority-of-last-");
  std::puts("primary re-merge recovers (no cold start). If the split hit the");
  std::puts("formation itself, the blocking class stays blocked until ALL");
  std::puts("attempters return; ours recovers from any majority. A full crash");
  std::puts("recovers from stable storage; destroyed disks reduce availability");
  std::puts("(all-disks-lost can never re-form: Sub_Quorum(∞,T) = FALSE) but");
  std::puts("never consistency (paper footnotes 2 and 4).");
  emit_bench_result("recovery", result);
  return 0;
}
