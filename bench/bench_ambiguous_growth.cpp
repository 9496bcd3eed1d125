// Experiment E3 — ambiguous-session growth (paper section 4.7 and
// Theorem 1).
//
// Replays the paper's exponential execution for growing n: with the
// basic protocol the driving process records 2^(n-|G|) ambiguous
// sessions (2^⌊n/2⌋ for odd n, the paper's figure); the optimized
// protocol's garbage collection keeps the record at O(1) on this
// execution, and never above the Theorem-1 bound n - Min_Quorum + 1
// anywhere (verified on random schedules as well).
#include <cstdio>
#include <string>

#include "harness/availability.hpp"
#include "harness/bench_report.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "harness/schedule.hpp"
#include "harness/sweep.hpp"
#include "util/table.hpp"

namespace dynvote {
namespace {

std::size_t run_exponential(ProtocolKind kind, std::uint32_t n) {
  ClusterOptions options;
  options.kind = kind;
  options.n = n;
  options.sim.seed = 470 + n;
  Cluster cluster(options);

  const std::uint32_t g_size = (n + 2) / 2;  // ceil((n+1)/2)
  ProcessSet g;
  for (std::uint32_t i = 0; i < g_size; ++i) g.insert(ProcessId(i));
  const std::uint32_t tail = n - g_size;

  FaultInjector faults(cluster.sim().network());
  for (std::uint32_t bits = 0; bits < (1u << tail); ++bits) {
    ProcessSet members = g;
    for (std::uint32_t b = 0; b < tail; ++b) {
      if (bits & (1u << b)) members.insert(ProcessId(g_size + b));
    }
    faults.clear();
    for (ProcessId p : members) {
      if (p != ProcessId(0)) faults.drop_to(p, "dv.info");
    }
    std::vector<ProcessSet> groups{members};
    for (std::uint32_t q = 0; q < n; ++q) {
      if (!members.contains(ProcessId(q))) {
        groups.push_back(ProcessSet{ProcessId(q)});
      }
    }
    cluster.partition(groups);
    cluster.settle();
  }
  faults.clear();
  return cluster.checker().max_ambiguous(ProcessId(0));
}

std::size_t random_schedule_high_water(ProtocolKind kind, std::uint32_t n,
                                       std::size_t min_quorum) {
  // The five seeds are independent simulations; run them on the sweep
  // pool. max() over the index-ordered slots is order-insensitive, so
  // the verdict is identical at any thread count.
  const auto high_waters = sweep_map<std::size_t>(5, 0, [&](std::size_t i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(i) + 1;
    ScheduleOptions schedule_options;
    schedule_options.seed = seed * 997 + n;
    schedule_options.duration = 1'500'000;
    const auto schedule = generate_schedule(ProcessSet::range(n), schedule_options);
    ClusterOptions base;
    base.n = n;
    base.config.min_quorum = min_quorum;
    return run_schedule(kind, schedule, base).max_ambiguous;
  });
  std::size_t high_water = 0;
  for (const std::size_t hw : high_waters) high_water = std::max(high_water, hw);
  return high_water;
}

}  // namespace
}  // namespace dynvote

int main() {
  using namespace dynvote;
  std::puts("E3: ambiguous-session growth (paper 4.7 + Theorem 1)\n");

  std::puts("The paper's adversarial execution (section 4.7):");
  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("E3"));
  JsonValue adversarial_rows = JsonValue::array();
  Table adversarial({"n", "sessions driven", "basic records", "paper 2^(n-|G|)",
                     "optimized records"});
  for (std::uint32_t n : {4u, 5u, 6u, 7u, 8u, 9u, 10u}) {
    const std::size_t sessions = 1u << (n - (n + 2) / 2);
    const std::size_t basic = run_exponential(ProtocolKind::kBasic, n);
    const std::size_t optimized = run_exponential(ProtocolKind::kOptimized, n);
    adversarial.add_row({std::to_string(n), std::to_string(sessions),
                         std::to_string(basic), std::to_string(sessions),
                         std::to_string(optimized)});
    JsonValue row = JsonValue::object();
    row.set("n", JsonValue(std::uint64_t{n}));
    row.set("sessions_driven", JsonValue(std::uint64_t{sessions}));
    row.set("basic_records", JsonValue(std::uint64_t{basic}));
    row.set("optimized_records", JsonValue(std::uint64_t{optimized}));
    adversarial_rows.push_back(std::move(row));
  }
  result.set("adversarial", std::move(adversarial_rows));
  std::printf("%s\n", adversarial.to_string().c_str());

  std::puts("Random failure schedules (5 seeds each), high-water marks vs the");
  std::puts("Theorem-1 bound n - Min_Quorum + 1 for the optimized protocol:");
  Table random_table({"n", "Min_Quorum", "basic high-water",
                      "optimized high-water", "Theorem 1 bound"});
  JsonValue random_rows = JsonValue::array();
  for (std::uint32_t n : {5u, 7u, 9u}) {
    for (std::size_t min_quorum : {std::size_t{1}, std::size_t{2}}) {
      const auto basic =
          random_schedule_high_water(ProtocolKind::kBasic, n, min_quorum);
      const auto optimized =
          random_schedule_high_water(ProtocolKind::kOptimized, n, min_quorum);
      random_table.add_row({std::to_string(n), std::to_string(min_quorum),
                            std::to_string(basic), std::to_string(optimized),
                            std::to_string(n - min_quorum + 1)});
      JsonValue row = JsonValue::object();
      row.set("n", JsonValue(std::uint64_t{n}));
      row.set("min_quorum", JsonValue(std::uint64_t{min_quorum}));
      row.set("basic_high_water", JsonValue(std::uint64_t{basic}));
      row.set("optimized_high_water", JsonValue(std::uint64_t{optimized}));
      row.set("theorem1_bound", JsonValue(std::uint64_t{n - min_quorum + 1}));
      random_rows.push_back(std::move(row));
    }
  }
  result.set("random_schedules", std::move(random_rows));
  std::printf("%s\n", random_table.to_string().c_str());
  std::puts("Paper expectation: column 3 doubles with every step of n (odd n:");
  std::puts("2^ floor(n/2)); the optimized protocol stays constant on the");
  std::puts("adversarial run and always within the Theorem-1 bound.");
  emit_bench_result("ambiguous_growth", result);
  return 0;
}
