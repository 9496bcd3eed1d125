// Experiment E9 — dynamically changing quorum requirements (paper
// section 6).
//
// Motivating workload (paper section 1): conferencing applications where
// participants join and leave freely. Measures:
//
//   (1) join latency: time from connecting a new participant to the
//       re-formed primary that includes it, and the W/A admission flow;
//   (2) the availability difference once the core retires: with the
//       fixed-core rule (section 4.1) a quorum must always contain
//       Min_Quorum members of W0; with section 6's W/A sets the joiners
//       are first-class and the system outlives its founders.
#include <cstdio>
#include <iterator>
#include <string>

#include "dv/basic_protocol.hpp"
#include "harness/bench_report.hpp"
#include "harness/cluster.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dynvote {
namespace {

const ProtocolState& state_of(Cluster& cluster, std::uint32_t p) {
  return dynamic_cast<const BasicDvProtocol&>(cluster.protocol(ProcessId(p)))
      .state();
}

JsonValue join_flow() {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 3;
  options.config.min_quorum = 2;
  options.config.dynamic_participants = true;
  options.sim.seed = 90;
  Cluster cluster(options);
  cluster.start();

  std::puts("(1) join flow: core {p0,p1,p2}, five joiners arrive one by one");
  Table table({"joiner", "join latency (us)", "primary after join", "W after",
               "A after"});
  Summary latency;
  JsonValue rows = JsonValue::array();
  for (std::uint32_t joiner = 3; joiner <= 7; ++joiner) {
    cluster.add_process(ProcessId(joiner));
    const SimTime before = cluster.sim().now();
    cluster.merge();
    cluster.settle();
    const SimTime took = cluster.sim().now() - before;
    latency.add(static_cast<double>(took));
    const auto primary = cluster.live_primary();
    table.add_row({"p" + std::to_string(joiner), std::to_string(took),
                   primary ? primary->members.to_string() : "none",
                   state_of(cluster, 0).participants.admitted().to_string(),
                   state_of(cluster, 0).participants.pending().to_string()});
    JsonValue row = JsonValue::object();
    row.set("joiner", JsonValue(std::uint64_t{joiner}));
    row.set("join_latency_us", JsonValue(std::uint64_t{took}));
    row.set("joined_primary", JsonValue(primary.has_value()));
    rows.push_back(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("mean join latency: %s us\n\n", format_double(latency.mean(), 0).c_str());
  JsonValue block = JsonValue::object();
  block.set("mean_join_latency_us",
            JsonValue(latency.empty() ? 0.0 : latency.mean()));
  block.set("joins", std::move(rows));
  return block;
}

JsonValue core_retirement() {
  std::puts("(2) the core retires: {p0,p1,p2} leave after five joiners were");
  std::puts("    admitted; can the joiners keep a primary? (Min_Quorum = 2)");
  Table table({"quorum rule", "primary among joiners", "verdict"});
  JsonValue rows = JsonValue::array();
  for (bool dynamic : {false, true}) {
    ClusterOptions options;
    options.kind = ProtocolKind::kOptimized;
    options.n = 3;
    options.config.min_quorum = 2;
    options.config.dynamic_participants = dynamic;
    options.sim.seed = 91;
    Cluster cluster(options);
    cluster.start();
    ProcessSet joiners;
    for (std::uint32_t joiner = 3; joiner <= 7; ++joiner) {
      cluster.add_process(ProcessId(joiner));
      joiners.insert(ProcessId(joiner));
      cluster.merge();
      cluster.settle();
    }
    // The founders leave (a partition isolates them; they could equally
    // crash — the quorum rule is what matters).
    cluster.partition({joiners, ProcessSet::of({0, 1, 2})});
    cluster.settle();
    const auto primary = cluster.live_primary();
    const bool joiners_carry = primary && primary->members == joiners;
    table.add_row({dynamic ? "section 6 (W/A sets)" : "fixed core (section 4.1)",
                   joiners_carry ? joiners.to_string() : "none",
                   joiners_carry ? "system outlives its founders"
                                 : "founders' departure strands it"});
    JsonValue row = JsonValue::object();
    row.set("quorum_rule", JsonValue(dynamic ? "dynamic_wa" : "fixed_core"));
    row.set("joiners_carry_primary", JsonValue(joiners_carry));
    rows.push_back(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
  return rows;
}

JsonValue churn_availability() {
  std::puts("(3) continuous churn: joiners keep arriving while the network");
  std::puts("    partitions and heals (formed sessions / sessions attempted):");
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 3;
  options.config.dynamic_participants = true;
  options.sim.seed = 92;
  Cluster cluster(options);
  cluster.start();

  std::uint32_t next_joiner = 3;
  for (int round = 0; round < 8; ++round) {
    cluster.add_process(ProcessId(next_joiner++));
    cluster.merge();
    cluster.settle();
    // Random-ish deterministic churn: split off the two lowest ids.
    ProcessSet everyone;
    for (ProcessId p : cluster.all_processes()) everyone.insert(p);
    const ProcessSet low =
        ProcessSet{*everyone.begin(), *std::next(everyone.begin())};
    cluster.partition({everyone.set_difference(low), low});
    cluster.settle();
    cluster.merge();
    cluster.settle();
  }
  const auto violations = cluster.checker().check_all();
  std::printf("formed sessions: %zu, rejected: %llu, violations: %zu\n",
              cluster.checker().formed_session_count(),
              static_cast<unsigned long long>(cluster.observer().rejected()),
              violations.size());
  std::printf("final W at p0: %s\n\n",
              state_of(cluster, 0).participants.admitted().to_string().c_str());
  JsonValue block = JsonValue::object();
  block.set("formed_sessions",
            JsonValue(std::uint64_t{cluster.checker().formed_session_count()}));
  block.set("rejected_sessions",
            JsonValue(std::uint64_t{cluster.observer().rejected()}));
  block.set("violations", JsonValue(std::uint64_t{violations.size()}));
  return block;
}

}  // namespace
}  // namespace dynvote

int main() {
  using namespace dynvote;
  std::puts("E9: dynamically changing quorum requirements (paper section 6)\n");
  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("E9"));
  result.set("join_flow", join_flow());
  result.set("core_retirement", core_retirement());
  result.set("churn", churn_availability());
  std::puts("Paper expectation: joiners enter A on contact and move to W on the");
  std::puts("first formed session; with section 6 the Min_Quorum requirement");
  std::puts("counts the grown W, so the system survives the departure of every");
  std::puts("founder — under the fixed core of section 4.1 it cannot.");
  emit_bench_result("dynamic_membership", result);
  return 0;
}
