// Unit tests: the causal span layer (obs/spans.hpp) — span building,
// causal chains, the replayed registry vs. the live one, Chrome export
// determinism, and the trace sink's registry gauges.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "harness/trace_replay.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace dynvote {
namespace {

using obs::TraceEvent;
using obs::TraceEventKind;

/// The E1 scenario of bench_scenario_typical: p2 misses the closing
/// attempt round of the {p0,p1,p2} session, then the partition shifts to
/// {p0,p1} | {p2,p3,p4}. Optionally heals at the end so the section-5
/// resolution rules get to fire.
struct E1Run {
  std::unique_ptr<Cluster> cluster;
  TraceMetaAndEvents trace;
};

E1Run run_e1(ProtocolKind kind, std::uint64_t seed, bool heal) {
  ClusterOptions options;
  options.kind = kind;
  options.n = 5;
  options.sim.seed = seed;
  options.trace_messages = true;
  auto cluster = std::make_unique<Cluster>(options);

  FaultInjector faults(cluster->sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster->partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster->settle();
  faults.clear();
  cluster->partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster->settle();
  if (heal) {
    cluster->merge();
    cluster->settle();
  }

  E1Run run;
  run.trace = load_trace_json(
      trace_to_json(cluster->trace_meta(), cluster->sim().trace()).dump());
  run.cluster = std::move(cluster);
  return run;
}

TEST(SpansTest, SameSeedProducesByteIdenticalSpanAndChromeJson) {
  const E1Run a = run_e1(ProtocolKind::kOptimized, 2026, /*heal=*/true);
  const E1Run b = run_e1(ProtocolKind::kOptimized, 2026, /*heal=*/true);

  const obs::SpanReport report_a = obs::build_spans(a.trace.events);
  const obs::SpanReport report_b = obs::build_spans(b.trace.events);
  EXPECT_EQ(obs::spans_to_json(report_a).dump(),
            obs::spans_to_json(report_b).dump());
  EXPECT_EQ(obs::chrome_trace_json(a.trace.meta, a.trace.events, report_a)
                .dump(),
            obs::chrome_trace_json(b.trace.meta, b.trace.events, report_b)
                .dump());
  EXPECT_FALSE(report_a.sessions.empty());
  EXPECT_FALSE(report_a.ambiguity.empty());
  EXPECT_FALSE(report_a.primaries.empty());
}

TEST(SpansTest, ExplainAbortChainRootsAtInjectedPartition) {
  const E1Run run = run_e1(ProtocolKind::kOptimized, 2026, /*heal=*/false);

  // The {p2,p3,p4} component must reject its session: p2's ambiguous
  // record of {p0,p1,p2} blocks it.
  const TraceEvent* abort_event = nullptr;
  for (const TraceEvent& event : run.trace.events) {
    if (event.kind == TraceEventKind::kSessionAbort &&
        event.members == ProcessSet::of({2, 3, 4})) {
      abort_event = &event;
    }
  }
  ASSERT_NE(abort_event, nullptr);

  const auto chain = obs::causal_chain(run.trace.events, abort_event->eid);
  ASSERT_GE(chain.size(), 3u);
  EXPECT_EQ(chain.back(), abort_event);
  // abort -> (view install) -> ... -> the injected topology change.
  EXPECT_EQ(chain.front()->kind, TraceEventKind::kTopologyChange);
  EXPECT_EQ(chain.front()->cause, 0u);
  bool has_view_install = false;
  for (const TraceEvent* event : chain) {
    has_view_install |= event->kind == TraceEventKind::kViewInstalled;
  }
  EXPECT_TRUE(has_view_install);
}

TEST(SpansTest, AmbiguityLifetimesRespectTheoremOneBound) {
  const E1Run run = run_e1(ProtocolKind::kOptimized, 2026, /*heal=*/true);
  const obs::SpanReport report = obs::build_spans(run.trace.events);

  ASSERT_EQ(run.trace.meta.ambiguity_bound, 5u);  // n=5, Min_Quorum=1
  EXPECT_LE(report.derived.max_open_ambiguity,
            run.trace.meta.ambiguity_bound);
  EXPECT_TRUE(check_trace(run.trace).ambiguity_ok);

  // p2 recorded the {p0,p1,p2} attempt it never saw form.
  bool p2_recorded = false;
  for (const auto& span : report.ambiguity) {
    p2_recorded |= span.process == ProcessId(2) &&
                   span.members == ProcessSet::of({0, 1, 2});
  }
  EXPECT_TRUE(p2_recorded);
}

TEST(SpansTest, HealingResolvesAmbiguityByAdoption) {
  const E1Run run = run_e1(ProtocolKind::kOptimized, 2026, /*heal=*/true);
  const obs::SpanReport report = obs::build_spans(run.trace.events);

  // After the heal, p2 learns from Last_Formed gossip that {p0,p1,p2}
  // was formed by a member and adopts it (paper figure 2).
  bool adopted = false;
  for (const auto& span : report.ambiguity) {
    if (span.process == ProcessId(2) &&
        span.members == ProcessSet::of({0, 1, 2})) {
      adopted |= span.adopted && span.resolution == "fig2-adoption";
    }
  }
  EXPECT_TRUE(adopted);
  // Every closure carries a resolution from the documented vocabulary.
  const std::set<std::string> known{
      "formed",        "overwritten",
      "fig2-adoption", "fig2-adoption-supersedes",
      "5.2-rule1-unformed-by-all", "5.2-rule2-formed-by-nobody",
      "disk-loss",     "open"};
  for (const auto& span : report.ambiguity) {
    EXPECT_TRUE(known.contains(span.resolution))
        << "unknown resolution: " << span.resolution;
  }
}

TEST(SpansTest, DiskLossClosesAmbiguitySpans) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = 91;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();

  cluster.sim().crash_and_destroy_disk(ProcessId(2));
  cluster.settle();
  cluster.recover(ProcessId(2));
  cluster.settle();

  const TraceMetaAndEvents trace = load_trace_json(
      trace_to_json(cluster.trace_meta(), cluster.sim().trace()).dump());
  const obs::SpanReport report = obs::build_spans(trace.events);
  bool disk_loss = false;
  for (const auto& span : report.ambiguity) {
    if (span.process == ProcessId(2)) {
      disk_loss |= span.resolution == "disk-loss";
    }
  }
  EXPECT_TRUE(disk_loss);
}

TEST(SpansTest, TraceDerivedMetricsMatchLiveRegistry) {
  for (const ProtocolKind kind : all_protocol_kinds()) {
    ClusterOptions options;
    options.kind = kind;
    options.n = 5;
    options.sim.seed = 17;
    Cluster cluster(options);
    cluster.start();
    for (int i = 0; i < 3; ++i) {
      cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
      cluster.settle();
      cluster.crash(ProcessId(1));
      cluster.settle();
      cluster.recover(ProcessId(1));
      cluster.merge();
      cluster.settle();
    }

    const TraceMetaAndEvents trace = load_trace_json(
        trace_to_json(cluster.trace_meta(), cluster.sim().trace()).dump());
    const obs::MetricsRegistry replayed = check_trace(trace).metrics;
    const auto mismatches =
        diff_observer_metrics(replayed, cluster.sim().metrics());
    EXPECT_TRUE(mismatches.empty())
        << to_string(kind) << ": " << mismatches.front();

    // The replayed numbers are not vacuous: the protocols form primaries
    // and spend most of the run with one live.
    const std::uint64_t uptime =
        replayed.counter_value("dv.primary_uptime_ticks");
    EXPECT_GT(replayed.counter_value("dv.formed"), 0u) << to_string(kind);
    EXPECT_GT(uptime, 0u) << to_string(kind);
    EXPECT_LE(uptime, cluster.sim().now()) << to_string(kind);
  }
}

TEST(SpansTest, CausalLinksAreWellFormed) {
  const E1Run run = run_e1(ProtocolKind::kOptimized, 2026, /*heal=*/true);

  std::set<std::uint64_t> eids;
  std::uint64_t previous = 0;
  for (const TraceEvent& event : run.trace.events) {
    // Ids are dense and strictly increasing in an unbounded sink.
    EXPECT_EQ(event.eid, previous + 1);
    previous = event.eid;
    eids.insert(event.eid);
  }
  for (const TraceEvent& event : run.trace.events) {
    if (event.cause == 0) continue;
    // Causes precede their effects and resolve within the trace.
    EXPECT_LT(event.cause, event.eid);
    EXPECT_TRUE(eids.contains(event.cause));
  }
  // Deliveries cite their send and advance the receiver's Lamport clock
  // past the sender's.
  std::size_t delivers = 0;
  for (const TraceEvent& event : run.trace.events) {
    if (event.kind != TraceEventKind::kMessageDeliver) continue;
    ASSERT_NE(event.cause, 0u);
    const TraceEvent& send = run.trace.events[event.cause - 1];
    ASSERT_EQ(send.kind, TraceEventKind::kMessageSend);
    EXPECT_EQ(send.a, event.a);
    EXPECT_EQ(send.b, event.b);
    EXPECT_GT(event.lamport, send.lamport);
    ++delivers;
  }
  EXPECT_GT(delivers, 0u);
}

TEST(SpansTest, TraceSinkGaugesMirrorSinkState) {
  const E1Run run = run_e1(ProtocolKind::kOptimized, 2026, /*heal=*/true);
  const obs::TraceSink& sink = run.cluster->sim().trace();
  const auto& gauges = run.cluster->sim().metrics().gauges();
  ASSERT_TRUE(gauges.contains("trace.events"));
  ASSERT_TRUE(gauges.contains("trace.overwritten"));
  EXPECT_EQ(gauges.at("trace.events").value(),
            static_cast<std::int64_t>(sink.size()));
  EXPECT_EQ(gauges.at("trace.overwritten").value(),
            static_cast<std::int64_t>(sink.overwritten()));
  EXPECT_EQ(sink.overwritten(), 0u);  // unbounded sink in this scenario
}

}  // namespace
}  // namespace dynvote
