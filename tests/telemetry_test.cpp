// Unit tests: the fleet-scale telemetry layer — MetricsHub rollups,
// the sim-time TimeSeriesSampler, the per-group FlightRecorder, sharded
// trace filtering, and the ShardedFleet telemetry export (including its
// byte-identity across sweep-pool widths).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "harness/trace_replay.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/hub.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_fleet.hpp"
#include "shard/sharded_kv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

// ---- obs/hub ----------------------------------------------------------------

TEST(MetricsHub, RollupSumsCountersMaxMergesGaugesMergesHistograms) {
  obs::MetricsHub hub(3);
  hub.group(0).counter("formed").add(2);
  hub.group(1).counter("formed").add(5);
  hub.group(2).counter("rejected").add(1);
  hub.group(0).gauge("level").set(4);
  hub.group(1).gauge("level").set(9);
  hub.group(1).gauge("level").set(3);  // current 3, max 9
  hub.group(0).histogram("lat").observe(10);
  hub.group(2).histogram("lat").observe(1000);

  obs::MetricsRegistry rollup = hub.rollup();
  EXPECT_EQ(rollup.counter_value("formed"), 7u);
  EXPECT_EQ(rollup.counter_value("rejected"), 1u);
  // Gauges max-merge: both the current level and the high-water mark
  // report the fleet-wide maximum.
  EXPECT_EQ(rollup.gauge("level").value(), 4);
  EXPECT_EQ(rollup.gauge("level").max(), 9);
  EXPECT_EQ(rollup.histogram("lat").count(), 2u);
  EXPECT_EQ(rollup.histogram("lat").min(), 10u);
  EXPECT_EQ(rollup.histogram("lat").max(), 1000u);

  EXPECT_EQ(hub.group_counter_sum("formed"), 7u);
  EXPECT_EQ(hub.group_counter_sum("never-registered"), 0u);
}

TEST(MetricsHub, ToJsonIsDeterministicAndIndexOrdered) {
  const auto build = [] {
    obs::MetricsHub hub(2);
    // Register in different orders per group: the export is name-sorted,
    // so the document must not depend on registration order.
    hub.group(0).counter("b").add(1);
    hub.group(0).counter("a").add(2);
    hub.group(1).counter("a").add(3);
    hub.group(1).counter("b").add(4);
    return hub.to_json().dump();
  };
  const std::string once = build();
  EXPECT_EQ(once, build());
  const JsonValue doc = JsonValue::parse(once);
  EXPECT_EQ(doc.at("num_groups").as_uint(), 2u);
  EXPECT_EQ(doc.at("groups").as_array().size(), 2u);
  EXPECT_EQ(doc.at("rollup").at("counters").at("a").as_uint(), 5u);
}

TEST(MetricsHub, MergedQuantileMatchesExactHistogramOfAllSamples) {
  // Property: the rollup histogram is exactly the histogram of every
  // group's samples concatenated, so its quantiles equal those of a
  // single histogram fed the union — for random shardings of a random
  // stream.
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t groups = 1 + rng.next_below(8);
    obs::MetricsHub hub(groups);
    obs::Histogram exact;
    const std::size_t samples = 1 + rng.next_below(200);
    for (std::size_t s = 0; s < samples; ++s) {
      const std::uint64_t value = rng.next_below(1u << 20);
      hub.group(rng.next_below(groups)).histogram("lat").observe(value);
      exact.observe(value);
    }
    obs::MetricsRegistry rollup = hub.rollup();
    const obs::Histogram& merged = rollup.histogram("lat");
    ASSERT_EQ(merged, exact);
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(merged.quantile(q), exact.quantile(q));
    }
  }
}

// ---- obs/timeseries ---------------------------------------------------------

TEST(TimeSeries, TickGatesSamplesAndComputesWindowedRates) {
  obs::MetricsHub hub(2);
  obs::Counter& c0 = hub.group(0).counter("formed");
  obs::Counter& c1 = hub.group(1).counter("formed");
  obs::TimeSeriesSampler sampler(hub);
  sampler.track_counter("formed");
  sampler.track_gauge("level");

  c0.add(2);
  sampler.sample(0);  // first sample always retained
  EXPECT_EQ(sampler.size(), 1u);
  sampler.sample(obs::kTimeSeriesTick - 1);  // inside the window: dropped
  EXPECT_EQ(sampler.size(), 1u);
  sampler.sample(400);  // out of order: dropped
  EXPECT_EQ(sampler.size(), 1u);

  c0.add(1);
  c1.add(3);
  hub.group(1).gauge("level").set(6);
  sampler.sample(2'000'000);  // 2 virtual seconds later
  ASSERT_EQ(sampler.size(), 2u);

  const JsonValue doc = sampler.to_json();
  EXPECT_EQ(doc.at("schema_version").as_int(), obs::kTimeSeriesSchemaVersion);
  const JsonValue& formed = doc.at("counters").at("formed");
  EXPECT_EQ(formed.at("values").as_array()[0].as_uint(), 2u);
  EXPECT_EQ(formed.at("values").as_array()[1].as_uint(), 6u);
  // Delta 4 over 2 virtual seconds.
  EXPECT_DOUBLE_EQ(formed.at("rates").as_array()[1].as_double(), 2.0);
  EXPECT_EQ(
      doc.at("gauges").at("level").at("values").as_array()[1].as_int(), 6);
}

TEST(TimeSeries, RingBoundEvictsOldestAndCountsDrops) {
  obs::MetricsHub hub(1);
  obs::TimeSeriesSampler sampler(hub);
  sampler.track_counter("c");
  for (SimTime t = 0; t < obs::kTimeSeriesCapacity + 7; ++t) {
    sampler.sample(t * obs::kTimeSeriesTick);
  }
  EXPECT_EQ(sampler.size(), obs::kTimeSeriesCapacity);
  EXPECT_EQ(sampler.dropped(), 7u);
  const JsonValue doc = sampler.to_json();
  ASSERT_EQ(doc.at("times").as_array().size(), obs::kTimeSeriesCapacity);
  EXPECT_EQ(doc.at("times").as_array()[0].as_uint(),
            7 * obs::kTimeSeriesTick);  // oldest kept
  EXPECT_EQ(doc.at("dropped").as_uint(), 7u);
}

// ---- obs/flight_recorder ----------------------------------------------------

obs::TraceEvent protocol_event(std::uint64_t eid, std::uint32_t pid,
                               obs::TraceEventKind kind, SimTime t,
                               std::uint64_t cause = 0) {
  obs::TraceEvent e;
  e.eid = eid;
  e.time = t;
  e.kind = kind;
  e.a = ProcessId(pid);
  e.cause = cause;
  return e;
}

TEST(FlightRecorder, RoutesByGroupAndSkipsMessages) {
  obs::FlightRecorderOptions options;
  options.num_groups = 2;
  options.group_size = 3;
  obs::FlightRecorder recorder(options);

  recorder.note(protocol_event(1, 1, obs::TraceEventKind::kViewInstalled, 10));
  recorder.note(protocol_event(2, 4, obs::TraceEventKind::kViewInstalled, 11));
  recorder.note(protocol_event(3, 0, obs::TraceEventKind::kMessageSend, 12));

  obs::TraceEvent topology;
  topology.eid = 4;
  topology.kind = obs::TraceEventKind::kTopologyChange;
  topology.members.insert(ProcessId(3));
  topology.members.insert(ProcessId(5));
  recorder.note(topology);

  ASSERT_EQ(recorder.group_events(0).size(), 1u);  // message skipped
  EXPECT_EQ(recorder.group_events(0)[0].eid, 1u);
  ASSERT_EQ(recorder.group_events(1).size(), 2u);  // view + topology
  EXPECT_EQ(recorder.group_events(1)[1].eid, 4u);
}

TEST(FlightRecorder, RingKeepsLastNOldestFirst) {
  obs::FlightRecorder recorder(obs::FlightRecorderOptions{});
  const std::uint64_t total = obs::kFlightRecorderCapacity + 6;
  for (std::uint64_t i = 1; i <= total; ++i) {
    recorder.note(
        protocol_event(i, 0, obs::TraceEventKind::kViewInstalled, i));
  }
  const auto& events = recorder.group_events(0);
  ASSERT_EQ(events.size(), obs::kFlightRecorderCapacity);
  EXPECT_EQ(events.front().eid, 7u);
  EXPECT_EQ(events.back().eid, total);
  EXPECT_EQ(events.overwritten(), 6u);
}

TEST(FlightRecorder, PostmortemChainsAreRootFirstAndFlagTruncation) {
  obs::FlightRecorder recorder(obs::FlightRecorderOptions{});
  recorder.note(protocol_event(1, 0, obs::TraceEventKind::kViewInstalled, 1));
  recorder.note(
      protocol_event(2, 0, obs::TraceEventKind::kSessionAttempt, 2, 1));
  recorder.note(
      protocol_event(3, 0, obs::TraceEventKind::kSessionFormed, 3, 2));

  JsonValue doc = recorder.postmortem_json(0, "test-reason", 99);
  EXPECT_EQ(doc.at("schema_version").as_int(),
            obs::kPostmortemSchemaVersion);
  EXPECT_EQ(doc.at("reason").as_string(), "test-reason");
  EXPECT_EQ(doc.at("time").as_uint(), 99u);
  ASSERT_EQ(doc.at("chains").as_array().size(), 1u);  // recent == formed
  const JsonValue& chain = doc.at("chains").as_array()[0];
  EXPECT_EQ(chain.at("for").as_uint(), 3u);
  ASSERT_EQ(chain.at("eids").as_array().size(), 3u);
  EXPECT_EQ(chain.at("eids").as_array()[0].as_uint(), 1u);  // root first
  EXPECT_FALSE(chain.at("truncated").as_bool());
  // Events serialize in the same single-letter schema as trace.json.
  const obs::TraceEvent parsed =
      obs::trace_event_from_json(doc.at("events").as_array()[0]);
  EXPECT_EQ(parsed.eid, 1u);

  // A cause outside the ring truncates the chain.
  recorder.note(
      protocol_event(5, 0, obs::TraceEventKind::kSessionAbort, 5, 4));
  doc = recorder.postmortem_json(0, "x", 100);
  bool found_abort_chain = false;
  for (const JsonValue& c : doc.at("chains").as_array()) {
    if (c.at("for").as_uint() != 5u) continue;
    found_abort_chain = true;
    EXPECT_TRUE(c.at("truncated").as_bool());
  }
  EXPECT_TRUE(found_abort_chain);
}

// ---- sharded trace meta + group filtering -----------------------------------

TEST(TraceFilter, FleetShapeRoundTripsAndSingleGroupTracesAreUnchanged) {
  obs::TraceSink sink;
  sink.record(protocol_event(0, 0, obs::TraceEventKind::kViewInstalled, 1));

  obs::TraceMeta meta;
  meta.protocol = "optimized";
  meta.n = 6;
  meta.num_groups = 2;
  meta.group_size = 3;
  const std::string sharded = trace_to_json(meta, sink).dump();
  // The export is a pure function of meta and sink.
  EXPECT_EQ(sharded, trace_to_json(meta, sink).dump());
  const TraceMetaAndEvents parsed = load_trace_json(sharded);
  EXPECT_EQ(parsed.meta.num_groups, 2u);
  EXPECT_EQ(parsed.meta.group_size, 3u);

  // A shapeless meta omits the keys entirely (single-group traces stay
  // byte-unchanged from before the schema grew the fields).
  obs::TraceMeta flat = meta;
  flat.num_groups = 0;
  flat.group_size = 0;
  const std::string single = trace_to_json(flat, sink).dump();
  EXPECT_EQ(single.find("num_groups"), std::string::npos);
  EXPECT_EQ(load_trace_json(single).meta.group_size, 0u);
}

TEST(TraceFilter, GroupFilterKeepsOneGroupsEventsWithCausesIntact) {
  shard::ShardedFleetOptions options;
  options.num_groups = 3;
  options.group_size = 3;
  options.num_machines = 4;
  options.sim.seed = 5150;
  shard::ShardedFleet fleet(options);
  fleet.start();
  fleet.partition_fleet({{0, 1}, {2, 3}});
  fleet.settle();
  fleet.merge_fleet();
  fleet.settle();

  obs::TraceMeta meta;
  meta.protocol = "optimized";
  meta.n = fleet.fleet_n();
  meta.num_groups = options.num_groups;
  meta.group_size = options.group_size;
  ProcessSet all;
  for (std::uint32_t g = 0; g < options.num_groups; ++g) {
    for (const ProcessId p : fleet.group_members(g)) all.insert(p);
  }
  meta.core = all;
  const TraceMetaAndEvents trace =
      load_trace_json(trace_to_json(meta, fleet.sim().trace()).dump());

  std::size_t kept_total = 0;
  for (std::uint32_t g = 0; g < options.num_groups; ++g) {
    const TraceMetaAndEvents filtered = filter_trace_group(trace, g);
    EXPECT_EQ(filtered.meta.n, options.group_size);
    EXPECT_FALSE(filtered.events.empty());
    kept_total += filtered.events.size();
    const auto lo = ProcessId(g * options.group_size).value();
    const auto hi = lo + options.group_size;
    for (const obs::TraceEvent& e : filtered.events) {
      if (e.kind == obs::TraceEventKind::kTopologyChange) {
        for (const ProcessId p : e.members) {
          EXPECT_GE(p.value(), lo);
          EXPECT_LT(p.value(), hi);
        }
      } else {
        EXPECT_GE(e.a.value(), lo);
        EXPECT_LT(e.a.value(), hi);
      }
      // Causal chains survive: any cited cause is itself kept.
      if (e.cause != 0) {
        bool found = false;
        for (const obs::TraceEvent& other : filtered.events) {
          if (other.eid == e.cause) { found = true; break; }
        }
        EXPECT_TRUE(found) << "event #" << e.eid << " cites evicted #"
                           << e.cause;
      }
    }
  }
  // Every per-process/topology event belongs to exactly one group.
  EXPECT_EQ(kept_total, trace.events.size());
}

// ---- ShardedFleet telemetry -------------------------------------------------

shard::ShardedFleetOptions small_fleet_options(std::uint64_t seed) {
  shard::ShardedFleetOptions options;
  options.num_groups = 4;
  options.group_size = 3;
  options.num_machines = 4;
  options.sim.seed = seed;
  return options;
}

std::string run_fleet_telemetry(std::uint64_t seed) {
  shard::ShardedFleet fleet(small_fleet_options(seed));
  shard::ShardedKv kv(fleet);
  fleet.start();
  fleet.partition_fleet({{0, 1}, {2, 3}});
  fleet.settle();
  for (int i = 0; i < 8; ++i) kv.write("k" + std::to_string(i), "v");
  fleet.merge_fleet();
  fleet.settle();
  return fleet.telemetry_json().dump();
}

TEST(FleetTelemetry, RollupAgreesWithFleetTotalsAndIsByteStable) {
  shard::ShardedFleet fleet(small_fleet_options(21));
  fleet.start();
  fleet.partition_fleet({{0, 1}, {2, 3}});
  fleet.settle();
  fleet.merge_fleet();
  fleet.settle();

  const JsonValue doc = fleet.telemetry_json();
  EXPECT_EQ(doc.at("schema_version").as_int(),
            shard::kFleetTelemetrySchemaVersion);
  EXPECT_EQ(doc.at("groups").as_array().size(), 4u);
  // Per-group counters sum to the rollup exactly (dv.formed counts
  // per-replica formation events; the distinct-session total is its
  // own query).
  std::uint64_t sum = 0;
  for (const JsonValue& g : doc.at("groups").as_array()) {
    sum += g.at("counters").at("dv.formed").as_uint();
  }
  EXPECT_EQ(doc.at("rollup").at("counters").at("dv.formed").as_uint(), sum);
  EXPECT_GE(sum, fleet.total_formed_sessions());
  // Every closed reconfiguration window is counted once, fleet-wide.
  EXPECT_EQ(doc.at("rollup").at("counters").at("shard.reconfigs").as_uint(),
            fleet.reconfig_samples().size());
  // Reconfiguration windows carry group attribution and appear in the
  // top-k listing, slowest first.
  EXPECT_FALSE(fleet.reconfig_samples().empty());
  const JsonValue& slowest = doc.at("slowest_reconfigs").as_array();
  for (std::size_t i = 1; i < slowest.as_array().size(); ++i) {
    EXPECT_GE(slowest.as_array()[i - 1].at("latency_ticks").as_uint(),
              slowest.as_array()[i].at("latency_ticks").as_uint());
  }
  // Byte-stable: an identical run exports the identical document.
  EXPECT_EQ(run_fleet_telemetry(33), run_fleet_telemetry(33));
}

TEST(FleetTelemetry, OutlierLatencyDumpsACappedPostmortem) {
  shard::ShardedFleetOptions options = small_fleet_options(55);
  // Every reconfiguration exceeds one tick, so every closed window is an
  // outlier; the cap keeps the retained post-mortems bounded.
  options.telemetry.reconfig_outlier_ticks = 1;
  shard::ShardedFleet fleet(options);
  fleet.start();
  for (int cycle = 0; cycle < 3; ++cycle) {
    fleet.partition_fleet({{0, 1}, {2, 3}});
    fleet.settle();
    fleet.merge_fleet();
    fleet.settle();
  }

  // Three cut/heal cycles close more outlier windows than the cap.
  EXPECT_GT(fleet.reconfig_samples().size(), shard::kMaxPostmortems);
  ASSERT_EQ(fleet.postmortems().size(), shard::kMaxPostmortems);
  const JsonValue& first = fleet.postmortems().front();
  EXPECT_NE(first.at("reason").as_string().find("reconfig-latency-outlier"),
            std::string::npos);
  EXPECT_FALSE(first.at("events").as_array().empty());
  // The telemetry document embeds them.
  EXPECT_EQ(fleet.telemetry_json().at("postmortems").as_array().size(),
            shard::kMaxPostmortems);
}

TEST(FleetTelemetry, DisabledTelemetryKeepsTheSimulationScheduleIdentical) {
  const auto digest = [](bool telemetry) {
    shard::ShardedFleetOptions options = small_fleet_options(77);
    options.telemetry.enabled = telemetry;
    shard::ShardedFleet fleet(options);
    fleet.start();
    fleet.partition_fleet({{0, 1}, {2, 3}});
    fleet.settle();
    fleet.merge_fleet();
    fleet.settle();
    return std::pair{fleet.sim().queue().executed(),
                     fleet.total_formed_sessions()};
  };
  EXPECT_EQ(digest(true), digest(false));
}

// Named Sweep* so run_experiments.sh's TSan pass picks it up: pooled
// fleets producing telemetry concurrently. The tentpole contract — the
// fleet-telemetry export is byte-identical at any DYNVOTE_THREADS — is
// asserted here at widths 1 and 4 explicitly.
TEST(SweepTelemetry, TelemetryExportByteIdenticalAcrossPoolWidths) {
  constexpr std::size_t kSeeds = 6;
  const auto cell = [](std::size_t i) { return run_fleet_telemetry(i); };
  const auto serial = sweep_map<std::string>(kSeeds, 1, cell);
  const auto pooled = sweep_map<std::string>(kSeeds, 4, cell);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < kSeeds; ++i) {
    EXPECT_EQ(serial[i], pooled[i]) << "seed " << i;
    EXPECT_FALSE(serial[i].empty());
  }
}

}  // namespace
}  // namespace dynvote
