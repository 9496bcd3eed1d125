// Experiment E6 — progress after a failure DURING quorum formation
// (paper section 1: "our protocol requires only a majority of the
// members that attempted to form the last quorum to become reconnected
// ... while previously suggested protocols block until all the members
// of the last quorum become reconnected").
//
// Setup: all n processes attempt session S but nobody forms it (the
// attempt round is lost). Then a component of k of the attempters
// reconnects, for every k. Reported: which protocols re-form a primary.
//
// Expected shape: ours proceeds for every k > n/2 (and k = n/2 with the
// top-ranked member); blocking proceeds only at k = n.
#include <cstdio>
#include <string>

#include "harness/bench_report.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "util/table.hpp"

namespace dynvote {
namespace {

/// Returns "formed" / "blocked" / "refused" for a k-member reconnection
/// after the failed attempt.
std::string reconnect_outcome(ProtocolKind kind, std::uint32_t n,
                              std::uint32_t k, bool include_top) {
  ClusterOptions options;
  options.kind = kind;
  options.n = n;
  options.sim.seed = 600 + n * 17 + k * 3 + (include_top ? 1 : 0);
  Cluster cluster(options);

  FaultInjector faults(cluster.sim().network());
  for (std::uint32_t p = 0; p < n; ++p) {
    faults.drop_to(ProcessId(p), "dv.attempt", static_cast<int>(n - 1));
  }
  cluster.merge();
  cluster.settle();
  faults.clear();

  // Reconnect k attempters; the rest sit in singleton components. The
  // group either includes the top-ranked process (p_{n-1}) or not, which
  // decides ties at k = n/2.
  ProcessSet group;
  if (include_top) {
    for (std::uint32_t i = 0; i < k; ++i) group.insert(ProcessId(n - 1 - i));
  } else {
    for (std::uint32_t i = 0; i < k; ++i) group.insert(ProcessId(i));
  }
  std::vector<ProcessSet> components{group};
  for (std::uint32_t p = 0; p < n; ++p) {
    if (!group.contains(ProcessId(p))) components.push_back(ProcessSet{ProcessId(p)});
  }
  cluster.partition(components);
  if (k == n) {
    // Everyone stayed connected through the lost round, so there is no
    // topology change to report; the membership service re-announces the
    // (unchanged) view instead.
    cluster.oracle().inject_view(group);
  }
  cluster.settle();

  const auto primary = cluster.live_primary();
  if (primary && primary->members == group) return "formed";
  if (cluster.observer().blocked() > 0) return "blocked";
  return "refused";
}

}  // namespace
}  // namespace dynvote

int main() {
  using namespace dynvote;
  const std::uint32_t n = 6;
  std::printf(
      "E6: failure during quorum formation — all %u processes attempted S,\n"
      "nobody formed it; k attempters reconnect. Who makes progress?\n\n",
      n);

  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("E6"));
  result.set("n", JsonValue(std::uint64_t{n}));
  JsonValue groups = JsonValue::array();
  for (bool include_top : {true, false}) {
    std::printf("reconnecting group %s the top-ranked process p%u:\n",
                include_top ? "INCLUDES" : "EXCLUDES", n - 1);
    std::vector<std::string> header{"protocol"};
    for (std::uint32_t k = 2; k <= n; ++k) header.push_back("k=" + std::to_string(k));
    Table table(header);
    JsonValue rows = JsonValue::array();
    for (ProtocolKind kind :
         {ProtocolKind::kBasic, ProtocolKind::kOptimized,
          ProtocolKind::kBlockingDynamic, ProtocolKind::kThreePhaseRecovery}) {
      std::vector<std::string> row{to_string(kind)};
      JsonValue outcomes = JsonValue::object();
      for (std::uint32_t k = 2; k <= n; ++k) {
        const std::string outcome = reconnect_outcome(kind, n, k, include_top);
        outcomes.set("k" + std::to_string(k), JsonValue(outcome));
        row.push_back(outcome);
      }
      table.add_row(row);
      JsonValue json_row = JsonValue::object();
      json_row.set("protocol", JsonValue(to_string(kind)));
      json_row.set("outcomes", std::move(outcomes));
      rows.push_back(std::move(json_row));
    }
    std::printf("%s\n", table.to_string().c_str());
    JsonValue group = JsonValue::object();
    group.set("includes_top_ranked", JsonValue(include_top));
    group.set("rows", std::move(rows));
    groups.push_back(std::move(group));
  }
  result.set("groups", std::move(groups));

  std::puts("Paper expectation: ours/optimized/3phase form for every majority");
  std::puts("k > n/2 (and at k = n/2 exactly when the group holds the");
  std::puts("top-ranked process); blocking-dynamic forms only at k = n.");
  emit_bench_result("progress_after_failure", result);
  return 0;
}
