// Experiment E1 — the typical problematic scenario (paper sections 1 and
// 4.5).
//
// Five processes a..e (= p0..p4). The network splits {a,b,c} | {d,e};
// a and b complete the {a,b,c} session while c detaches before receiving
// the last message; then a,b continue alone and c joins d,e.
//
// Expected shape (paper): the naive protocol class ends with TWO live
// quorums ({a,b} and {c,d,e}); the paper's protocols end with exactly
// one ({a,b}), because c recorded the ambiguous {a,b,c} attempt.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "dv/centralized_protocol.hpp"
#include "harness/bench_report.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "harness/trace_replay.hpp"
#include "obs/spans.hpp"
#include "util/table.hpp"

namespace dynvote {
namespace {

struct Outcome {
  ProtocolKind kind;
  std::string live;
  std::size_t live_quorums = 0;
  std::size_t split_brain = 0;
  bool c_recorded_attempt = false;
  std::string trace_json;        // full structured trace of the run
  TraceCheckResult replay;       // offline re-verification of that trace
  obs::SpanReport spans;         // causal spans folded from the trace
  std::size_t trace_events = 0;  // event count of the exported trace
  /// Disagreements between the replayed and the live registry (must be
  /// empty: the two accounts describe one run).
  std::vector<std::string> cross_check;
};

Outcome run(ProtocolKind kind) {
  ClusterOptions options;
  options.kind = kind;
  options.n = 5;
  options.sim.seed = 2026;
  options.trace_messages = true;
  Cluster cluster(options);

  FaultInjector faults(cluster.sim().network());
  // c misses the closing messages of the {a,b,c} session. For the
  // two-round protocols that is the attempt round; for the one-round
  // naive protocol it is the info exchange itself.
  std::string closing = "dv.attempt";
  int copies = 2;
  if (kind == ProtocolKind::kNaiveDynamic) closing = "dv.info";
  if (kind == ProtocolKind::kCentralized) {
    closing = "dvc.commit";  // the centralized session's closing message
    copies = 1;
  }
  faults.drop_to(ProcessId(2), closing, copies);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();

  Outcome outcome;
  outcome.kind = kind;
  std::vector<Session> live;
  for (const auto& [p, session] : cluster.checker().live_primaries()) {
    bool known = false;
    for (const auto& s : live) known |= (s == session);
    if (!known) live.push_back(session);
  }
  outcome.live_quorums = live.size();
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (i != 0) outcome.live += " + ";
    outcome.live += live[i].members.to_string();
  }
  if (live.empty()) outcome.live = "none";
  for (const auto& v : cluster.checker().check_all()) {
    if (v.kind == "split-brain") ++outcome.split_brain;
  }
  const ProtocolState* c_state = nullptr;
  if (auto* dv = dynamic_cast<BasicDvProtocol*>(&cluster.protocol(ProcessId(2)))) {
    c_state = &dv->state();
  } else if (auto* cent = dynamic_cast<CentralizedDvProtocol*>(
                 &cluster.protocol(ProcessId(2)))) {
    c_state = &cent->state();
  }
  if (c_state != nullptr) {
    for (const auto& amb : c_state->ambiguous) {
      outcome.c_recorded_attempt |=
          amb.session.members == ProcessSet::of({0, 1, 2});
    }
  }
  // Export the structured trace and re-verify it offline: the replay
  // checker must reach the same verdict as the live one.
  outcome.trace_json =
      trace_to_json(cluster.trace_meta(), cluster.sim().trace()).dump();
  const TraceMetaAndEvents parsed = load_trace_json(outcome.trace_json);
  outcome.trace_events = parsed.events.size();
  outcome.replay = check_trace(parsed);
  outcome.spans = obs::build_spans(parsed.events);
  outcome.cross_check =
      diff_observer_metrics(outcome.replay.metrics, cluster.sim().metrics());
  return outcome;
}

}  // namespace
}  // namespace dynvote

int main() {
  using namespace dynvote;
  std::puts("E1: the typical problematic scenario (paper sections 1, 4.5)");
  std::puts("    split {a,b,c}|{d,e}; c misses the last message; then {a,b}|{c,d,e}\n");

  Table table({"protocol", "live quorums", "count", "split-brain",
               "c holds {a,b,c}?"});
  JsonValue result = JsonValue::object();
  result.set("experiment", JsonValue("E1"));
  result.set("n", JsonValue(std::uint64_t{5}));
  result.set("seed", JsonValue(std::uint64_t{2026}));
  JsonValue rows = JsonValue::array();
  // In-process wall time of the full end-to-end loop (simulate + export +
  // replay + spans, all 7 protocols). Reported separately because total
  // process wall-clock is dominated by exec/link overhead at this size.
  const auto wall_start = std::chrono::steady_clock::now();
  for (ProtocolKind kind :
       {ProtocolKind::kNaiveDynamic, ProtocolKind::kLastAttemptOnly,
        ProtocolKind::kBasic, ProtocolKind::kOptimized,
        ProtocolKind::kCentralized, ProtocolKind::kBlockingDynamic,
        ProtocolKind::kThreePhaseRecovery}) {
    const auto outcome = run(kind);
    table.add_row({to_string(kind), outcome.live,
                   std::to_string(outcome.live_quorums),
                   outcome.split_brain > 0 ? "VIOLATED" : "ok",
                   outcome.c_recorded_attempt ? "yes" : "-"});
    if (kind == ProtocolKind::kOptimized) {
      // The reference trace artifact: the optimized protocol's full
      // structured trace of the E1 run, replayable by the checker.
      write_json_file("trace.json", JsonValue::parse(outcome.trace_json));
    }
    JsonValue row = JsonValue::object();
    row.set("protocol", JsonValue(to_string(kind)));
    row.set("live", JsonValue(outcome.live));
    row.set("live_quorums", JsonValue(std::uint64_t{outcome.live_quorums}));
    row.set("split_brain", JsonValue(std::uint64_t{outcome.split_brain}));
    row.set("c_recorded_attempt", JsonValue(outcome.c_recorded_attempt));
    row.set("trace_replay_consistent", JsonValue(outcome.replay.consistent()));
    row.set("trace_replay_violations",
            JsonValue(std::uint64_t{outcome.replay.violations.size()}));
    row.set("trace_events", JsonValue(std::uint64_t{outcome.trace_events}));
    const auto& derived = outcome.spans.derived;
    row.set("ambiguity_spans",
            JsonValue(std::uint64_t{outcome.spans.ambiguity.size()}));
    row.set("max_open_ambiguity", JsonValue(derived.max_open_ambiguity));
    row.set("time_in_ambiguity_ticks",
            JsonValue(derived.time_in_ambiguity_ticks));
    const std::uint64_t uptime =
        outcome.replay.metrics.counter_value("dv.primary_uptime_ticks");
    row.set("primary_uptime_ticks", JsonValue(uptime));
    row.set("primary_availability",
            JsonValue(derived.horizon == 0
                          ? 0.0
                          : static_cast<double>(uptime) /
                                static_cast<double>(derived.horizon)));
    row.set("cross_check_ok", JsonValue(outcome.cross_check.empty()));
    rows.push_back(std::move(row));
  }
  const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  result.set("rows", std::move(rows));
  result.set("wall_us", JsonValue(static_cast<std::uint64_t>(wall_us)));
  std::printf("%s\n", table.to_string().c_str());
  std::printf("end-to-end wall (7 protocols, sim+export+replay): %lld us\n\n",
              static_cast<long long>(wall_us));
  std::puts("Paper expectation: naive class -> two live quorums (inconsistent);");
  std::puts("the paper's protocols -> exactly {p0,p1}, with c's ambiguous record");
  std::puts("of {p0,p1,p2} blocking {p2,p3,p4}.");
  emit_bench_result("scenario_typical", result);
  return 0;
}
