// Experiment E2 — the "trivial approach" counterexample (paper section
// 4.6).
//
// Reproduces the paper's session table
//
//     | Session            | a    | b       | c       | d       | e    |
//     | S1 = ({a,b,c}, 1)  | Form | Attempt | Attempt | -       | -    |
//     | S2 = ({b,c,d}, 2)  | -    | -       | Attempt | Attempt | -    |
//     | S3 = ({a,b}, 2)    | Form | Form    | -       | -       | -    |
//     | S3' = ({c,d,e}, 3) | -    | -       | Form    | Form    | Form |
//
// under the last-attempt-only strawman (which forms S3 AND S3'
// concurrently) and under the full protocols (which refuse S3').
#include <cstdio>
#include <map>
#include <string>

#include "harness/bench_report.hpp"
#include "harness/checker.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "util/table.hpp"

namespace dynvote {
namespace {

/// Observer reconstructing the paper's per-process Form/Attempt table.
class SessionTableObserver final : public ProtocolObserver {
 public:
  void on_attempt(SimTime, ProcessId p, const Session& session) override {
    auto& cell = cells_[session][p];
    if (cell.empty()) cell = "Attempt";
  }
  void on_formed(SimTime, ProcessId p, const Session& session, int) override {
    cells_[session][p] = "Form";
  }

  [[nodiscard]] Table render(std::uint32_t n) const {
    std::vector<std::string> header{"Session"};
    for (std::uint32_t i = 0; i < n; ++i) {
      header.push_back(std::string(1, static_cast<char>('a' + i)));
    }
    Table table(header);
    for (const auto& [session, row] : cells_) {
      std::vector<std::string> cells{session.to_string()};
      for (std::uint32_t i = 0; i < n; ++i) {
        auto it = row.find(ProcessId(i));
        cells.push_back(it == row.end() ? "-" : it->second);
      }
      table.add_row(cells);
    }
    return table;
  }

 private:
  std::map<Session, std::map<ProcessId, std::string>> cells_;
};

JsonValue run(ProtocolKind kind) {
  ClusterOptions options;
  options.kind = kind;
  options.n = 5;
  options.sim.seed = 46;
  Cluster cluster(options);

  SessionTableObserver table_observer;
  cluster.observers(0).add(&table_observer);

  FaultInjector faults(cluster.sim().network());
  // S1: a forms; b, c detach before forming.
  faults.drop_to(ProcessId(1), "dv.attempt", 2);
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  // S2: c, d attempt; b detaches before the attempt step.
  faults.drop_to(ProcessId(1), "dv.info", 2);
  cluster.partition({ProcessSet::of({1, 2, 3}), ProcessSet::of({0}),
                     ProcessSet::of({4})});
  cluster.settle();
  faults.clear();
  // S3 and S3' concurrently.
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();

  std::printf("--- %s ---\n", to_string(kind));
  std::printf("%s", table_observer.render(5).to_string().c_str());
  const auto violations = cluster.checker().check_all();
  std::size_t split = 0;
  for (const auto& v : violations) split += (v.kind == "split-brain");
  std::printf("live primaries: ");
  ProcessSet live;
  for (const auto& [p, session] : cluster.checker().live_primaries()) {
    live.insert(p);
  }
  std::printf("%s; split-brain violations: %zu\n\n", live.to_string().c_str(),
              split);

  JsonValue row = JsonValue::object();
  row.set("protocol", JsonValue(to_string(kind)));
  row.set("live_primaries", JsonValue(live.to_string()));
  row.set("split_brain", JsonValue(std::uint64_t{split}));
  return row;
}

}  // namespace
}  // namespace dynvote

int main() {
  using namespace dynvote;
  std::puts("E2: the trivial 'record only the last attempt' approach (paper 4.6)");
  std::puts("    a..e = p0..p4; the S1/S2/S3/S3' execution from the paper\n");
  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("E2"));
  result.set("n", JsonValue(std::uint64_t{5}));
  result.set("seed", JsonValue(std::uint64_t{46}));
  JsonValue rows = JsonValue::array();
  rows.push_back(run(ProtocolKind::kLastAttemptOnly));
  rows.push_back(run(ProtocolKind::kBasic));
  rows.push_back(run(ProtocolKind::kOptimized));
  result.set("rows", std::move(rows));
  std::puts("Paper expectation: last-attempt-only forms S3 = ({a,b},2) AND");
  std::puts("S3' = ({c,d,e},3) concurrently (split brain); the full protocols");
  std::puts("form only S3 because c still remembers S1 = ({a,b,c},1).");
  emit_bench_result("scenario_trivial", result);
  return 0;
}
