// Unit tests: the observability layer — JSON codec, metrics registry,
// the bounded ring and the trace sink on it, deterministic trace export,
// and the checker's trace-replay mode.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "harness/trace_replay.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"
#include "util/ensure.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

// ---- util/json --------------------------------------------------------------

TEST(JsonTest, RoundTripsScalarsAndContainers) {
  JsonValue obj = JsonValue::object();
  obj.set("b", JsonValue(true));
  obj.set("i", JsonValue(std::int64_t{-42}));
  obj.set("u", JsonValue(std::uint64_t{18446744073709551615ULL}));
  obj.set("d", JsonValue(0.25));
  obj.set("s", JsonValue("with \"quotes\" and\nnewline"));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue(std::uint64_t{1}));
  arr.push_back(JsonValue(nullptr));
  obj.set("a", std::move(arr));

  const std::string text = obj.dump();
  const JsonValue parsed = JsonValue::parse(text);
  EXPECT_TRUE(parsed.at("b").as_bool());
  EXPECT_EQ(parsed.at("i").as_int(), -42);
  EXPECT_EQ(parsed.at("u").as_uint(), 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(parsed.at("d").as_double(), 0.25);
  EXPECT_EQ(parsed.at("s").as_string(), "with \"quotes\" and\nnewline");
  ASSERT_EQ(parsed.at("a").as_array().size(), 2u);
  EXPECT_TRUE(parsed.at("a").as_array()[1].is_null());
  // Serialization is deterministic: a reparse dumps identically.
  EXPECT_EQ(parsed.dump(), text);
}

TEST(JsonTest, PreservesObjectInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zebra", JsonValue(std::uint64_t{1}));
  obj.set("apple", JsonValue(std::uint64_t{2}));
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2}");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), JsonError);
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonError);
  EXPECT_THROW(JsonValue::parse("{} trailing"), JsonError);
  EXPECT_THROW(JsonValue::parse("nul"), JsonError);
}

// ---- obs/metrics ------------------------------------------------------------

TEST(MetricsTest, CountersGaugesHistograms) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(3);
  registry.counter("c").increment();
  EXPECT_EQ(registry.counter_value("c"), 4u);
  EXPECT_EQ(registry.counter_value("never-touched"), 0u);

  obs::Gauge& g = registry.gauge("g");
  g.set(7);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 7);

  obs::Histogram& h = registry.histogram("h");
  h.observe(1);
  h.observe(5);
  h.observe(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);

  const JsonValue json = registry.to_json();
  EXPECT_EQ(json.at("counters").at("c").as_uint(), 4u);
  EXPECT_EQ(json.at("gauges").at("g").at("max").as_int(), 7);
  EXPECT_EQ(json.at("histograms").at("h").at("count").as_uint(), 3u);

  registry.reset();
  EXPECT_EQ(registry.counter_value("c"), 0u);
  EXPECT_EQ(g.max(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsTest, ResetClearsHistogramMinForTheNextObservation) {
  // Regression: reset() used to leave min_ at the last observed value,
  // so the first post-reset observation above it never lowered the
  // minimum — and a merge_from a reset histogram poisoned the target.
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("h");
  h.observe(3);
  registry.reset();
  EXPECT_EQ(h.min(), 0u);  // empty again
  h.observe(50);
  EXPECT_EQ(h.min(), 50u);

  obs::Histogram target;
  target.observe(100);
  obs::Histogram empty;
  target.merge_from(empty);
  EXPECT_EQ(target.min(), 100u);  // empty source is a no-op
}

TEST(MetricsTest, QuantileInterpolatesWithinPowerOfTwoBuckets) {
  obs::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(7);
  EXPECT_EQ(h.quantile(0.0), 7.0);  // single value: clamped to [min,max]
  EXPECT_EQ(h.quantile(1.0), 7.0);
  for (std::uint64_t v = 1; v <= 1000; ++v) h.observe(v);
  // Power-of-two buckets are coarse; the estimate must land within the
  // bucket that holds the exact answer (here (512, 1024] around 500).
  const double p50 = h.quantile(0.50);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);  // clamped to the observed max
  EXPECT_LE(h.quantile(0.10), p50);
  EXPECT_LE(p50, p99);
}

TEST(MetricsTest, MergedHistogramEqualsHistogramOfConcatenatedStreams) {
  obs::Histogram left, right, all;
  for (std::uint64_t v : {1u, 8u, 9u, 500u}) { left.observe(v); all.observe(v); }
  for (std::uint64_t v : {2u, 3u, 700u}) { right.observe(v); all.observe(v); }
  obs::Histogram merged = left;
  merged.merge_from(right);
  EXPECT_EQ(merged, all);
  EXPECT_EQ(merged.quantile(0.5), all.quantile(0.5));
}

TEST(MetricsTest, InstrumentReferencesStayValidAcrossRegistrations) {
  obs::MetricsRegistry registry;
  obs::Counter& first = registry.counter("a");
  for (int i = 0; i < 100; ++i) {
    registry.counter("x" + std::to_string(i));
  }
  first.increment();
  EXPECT_EQ(registry.counter_value("a"), 1u);
}

// ---- obs/ring ---------------------------------------------------------------

/// Reference model of a bounded history: a deque that drops its front
/// once it holds `capacity` elements (0 = unbounded).
struct DequeReference {
  std::size_t capacity;
  std::deque<std::string> items;
  std::uint64_t overwritten = 0;

  void push(const std::string& value) {
    if (capacity != 0 && items.size() >= capacity) {
      items.pop_front();
      ++overwritten;
    }
    items.push_back(value);
  }
  void clear() {
    items.clear();
    overwritten = 0;
  }
};

TEST(Ring, MatchesADequeReferenceUnderSeededPushesAndClears) {
  for (const std::size_t capacity : {0u, 1u, 3u, 64u}) {
    obs::Ring<std::string> ring(capacity);
    DequeReference reference{capacity, {}, 0};
    Rng rng(9000 + capacity);
    for (int step = 0; step < 3000; ++step) {
      if (rng.next_below(100) == 0) {
        ring.clear();
        reference.clear();
      } else {
        // Strings of varying length, so assigning into an occupied slot
        // both reuses and grows its buffer.
        const std::string value(rng.next_below(40), 'a' + step % 26);
        const std::string stored = value + std::to_string(step);
        EXPECT_EQ(ring.push(stored), stored);
        reference.push(stored);
      }
      ASSERT_EQ(ring.size(), reference.items.size())
          << "capacity " << capacity << " step " << step;
      ASSERT_EQ(ring.empty(), reference.items.empty());
      ASSERT_EQ(ring.overwritten(), reference.overwritten)
          << "capacity " << capacity << " step " << step;
      const std::vector<std::string> iterated(ring.begin(), ring.end());
      const std::vector<std::string> expected(reference.items.begin(),
                                              reference.items.end());
      ASSERT_EQ(iterated, expected)
          << "capacity " << capacity << " step " << step;
      for (std::size_t i = 0; i < ring.size(); ++i) {
        ASSERT_EQ(ring[i], reference.items[i]);
      }
      if (!ring.empty()) {
        ASSERT_EQ(ring.front(), reference.items.front());
        ASSERT_EQ(ring.back(), reference.items.back());
      }
    }
  }
}

// ---- obs/trace --------------------------------------------------------------

obs::TraceEvent event_at(SimTime t) {
  obs::TraceEvent e;
  e.time = t;
  e.kind = obs::TraceEventKind::kViewInstalled;
  return e;
}

TEST(TraceSinkTest, RingBufferEvictsOldest) {
  obs::TraceSink sink(3);
  for (SimTime t = 0; t < 5; ++t) sink.record(event_at(t));
  ASSERT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.events().front().time, 2u);
  EXPECT_EQ(sink.events().back().time, 4u);
  EXPECT_EQ(sink.overwritten(), 2u);
}

TEST(TraceSinkTest, SetCapacityOnANonEmptySinkThrows) {
  obs::TraceSink sink;
  sink.set_capacity(2);  // empty: fine
  sink.record(event_at(1));
  EXPECT_THROW(sink.set_capacity(8), InvariantViolation);
  EXPECT_EQ(sink.capacity(), 2u);
  sink.clear();
  sink.set_capacity(8);
  EXPECT_EQ(sink.capacity(), 8u);
}

TEST(TraceSinkTest, MessageEventsAreGatedSeparately) {
  obs::TraceSink sink;
  obs::TraceEvent message;
  message.kind = obs::TraceEventKind::kMessageSend;
  sink.record(message);
  EXPECT_EQ(sink.size(), 0u);  // off by default
  sink.set_messages_enabled(true);
  sink.record(message);
  EXPECT_EQ(sink.size(), 1u);
  sink.record(event_at(1));  // protocol events always pass
  EXPECT_EQ(sink.size(), 2u);
}

// ---- deterministic export + replay -----------------------------------------

std::string run_and_export(std::uint64_t seed) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = seed;
  options.trace_messages = true;
  Cluster cluster(options);
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  cluster.merge();
  cluster.settle();
  return trace_to_json(cluster.trace_meta(), cluster.sim().trace()).dump();
}

TEST(TraceExportTest, SameSeedProducesByteIdenticalTraces) {
  const std::string a = run_and_export(1234);
  const std::string b = run_and_export(1234);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(TraceExportTest, DifferentSeedsProduceDifferentTraces) {
  EXPECT_NE(run_and_export(1234), run_and_export(1235));
}

TEST(TraceExportTest, JsonRoundTripPreservesEvents) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = 77;
  options.trace_messages = true;
  Cluster cluster(options);
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();

  const JsonValue exported =
      trace_to_json(cluster.trace_meta(), cluster.sim().trace());
  const TraceMetaAndEvents loaded = load_trace_json(exported.dump());

  const auto& original = cluster.sim().trace().events();
  ASSERT_EQ(loaded.events.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.events[i], original[i]) << "event " << i;
  }
  EXPECT_EQ(loaded.meta.core, cluster.core());
  EXPECT_EQ(loaded.meta.protocol, "dv-optimized");
  EXPECT_EQ(loaded.meta.ambiguity_bound, 5u);  // n=5, Min_Quorum=1
}

TEST(TraceReplayTest, CleanRunReverifiesC1AndAmbiguityBound) {
  // A full scenario exported to JSON and replayed from the text alone.
  const std::string exported = run_and_export(42);
  const TraceCheckResult verdict = check_trace(load_trace_json(exported));
  EXPECT_TRUE(verdict.consistent()) << to_string(verdict.violations);
  EXPECT_GT(verdict.formed_sessions, 0u);
  EXPECT_GT(verdict.attempts, 0u);
  EXPECT_EQ(verdict.ambiguity_bound, 5u);
  EXPECT_LE(verdict.max_ambiguous, verdict.ambiguity_bound);
}

TEST(TraceReplayTest, LoaderRejectsProcessIdsOutsideTheIdRange) {
  // An id past [0, 2^20) makes the trace malformed instead of wrapping to
  // another process (4294967299 as a uint32_t would read as p3).
  const std::string exported = run_and_export(42);
  // The export with the first digit run after `anchor` replaced by `raw`.
  const auto with_id = [&](const std::string& anchor, const std::string& raw) {
    std::string text = exported;
    const std::size_t at = text.find(anchor);
    EXPECT_NE(at, std::string::npos) << anchor;
    const std::size_t from = at + anchor.size();
    const std::size_t to = text.find_first_not_of("0123456789", from);
    return text.replace(from, to - from, raw);
  };
  const std::string view_a = "\"k\":\"view\",\"a\":";
  EXPECT_NO_THROW((void)load_trace_json(with_id(view_a, "1048575")));
  for (const std::string raw : {"4294967299", "1048576"}) {
    EXPECT_THROW((void)load_trace_json(with_id(view_a, raw)), JsonError);
    EXPECT_THROW((void)load_trace_json(with_id("\"b\":", raw)), JsonError);
    EXPECT_THROW((void)load_trace_json(with_id("\"m\":[", raw)), JsonError);
    EXPECT_THROW((void)load_trace_json(with_id("\"core\":[", raw)), JsonError);
  }
}

TEST(TraceReplayTest, DetectsSplitBrainOfNaiveProtocolFromTraceAlone) {
  // The E1 scenario: the naive protocol ends with two live primaries.
  ClusterOptions options;
  options.kind = ProtocolKind::kNaiveDynamic;
  options.n = 5;
  options.sim.seed = 2026;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.info", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();

  const std::string exported =
      trace_to_json(cluster.trace_meta(), cluster.sim().trace()).dump();
  const TraceCheckResult verdict = check_trace(load_trace_json(exported));
  bool split_brain = false;
  for (const Violation& v : verdict.violations) {
    split_brain |= v.kind == "split-brain";
  }
  EXPECT_TRUE(split_brain);
  // Replay reaches the same verdicts as the live checker.
  EXPECT_EQ(verdict.violations.size(), cluster.checker().check_all().size());
  EXPECT_EQ(verdict.formed_sessions, cluster.checker().formed_session_count());
}

TEST(TraceReplayTest, RingBoundedTraceStillReplaysRecentEvents) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = 7;
  Cluster cluster(options);
  cluster.trace().set_capacity(64);
  cluster.start();
  for (int i = 0; i < 6; ++i) {
    cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
    cluster.settle();
    cluster.merge();
    cluster.settle();
  }
  const obs::TraceSink& sink = cluster.sim().trace();
  EXPECT_LE(sink.size(), 64u);
  EXPECT_GT(sink.overwritten(), 0u);
  const TraceMetaAndEvents loaded =
      load_trace_json(trace_to_json(cluster.trace_meta(), sink).dump());
  EXPECT_EQ(loaded.meta.overwritten, sink.overwritten());

  // A truncated trace is only a suffix of the execution, so the replay
  // refuses to certify it. The surviving events still replay: C1 holds
  // on the suffix, so the truncation is the only violation, and the
  // bound check is unaffected.
  const TraceCheckResult result = check_trace(loaded);
  EXPECT_TRUE(result.truncated);
  EXPECT_FALSE(result.consistent());
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations.front().kind, "truncated-trace");
  EXPECT_TRUE(result.ambiguity_ok);
}

TEST(MetricsIntegrationTest, ClusterPopulatesSessionAndNetworkCounters) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = 5;
  Cluster cluster(options);
  cluster.start();
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();

  const obs::MetricsRegistry& metrics = cluster.sim().metrics();
  EXPECT_GT(metrics.counter_value("dv.formed"), 0u);
  EXPECT_GT(metrics.counter_value("dv.attempts"), 0u);
  EXPECT_GT(metrics.counter_value("net.messages_sent"), 0u);
  EXPECT_GT(metrics.counter_value("net.messages_delivered"), 0u);
  EXPECT_GT(metrics.counter_value("net.topology_changes"), 0u);
  // The registry and the stats() snapshot agree.
  EXPECT_EQ(metrics.counter_value("net.messages_sent"),
            cluster.sim().network().stats().messages_sent);
  // The dv gauge saw the ambiguous-record level.
  const auto& gauges = cluster.sim().metrics().gauges();
  ASSERT_TRUE(gauges.contains("dv.ambiguous_recorded"));
}

}  // namespace
}  // namespace dynvote
