// Tests for the wall-clock probe layer of the pool runtime
// (src/obs/runtime_probe.*): the single-writer ring, the phase
// attribution of reconfiguration windows, the JSON document and its
// Chrome export, the per-lane metric aggregation, and the integration
// through RuntimeFleet — including the digest-neutrality contract
// (probes on or off, the protocol outcome is byte-identical) and the
// eventcount wakeup stress meant to run under TSan
// (tools/run_experiments.sh wires the Runtime* prefixes into its TSan
// pass).
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/runtime_probe.hpp"
#include "runtime/crosscheck.hpp"
#include "runtime/fleet.hpp"
#include "util/ensure.hpp"
#include "util/json.hpp"

namespace dynvote::obs {
namespace {

using runtime::FleetOptions;
using runtime::RuntimeFleet;

// ---------------------------------------------------------------- ring

TEST(RuntimeProbe, RingRoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(ProbeRing(0).capacity(), 16u);
  EXPECT_EQ(ProbeRing(16).capacity(), 16u);
  EXPECT_EQ(ProbeRing(17).capacity(), 32u);
  EXPECT_EQ(ProbeRing(1000).capacity(), 1024u);
}

TEST(RuntimeProbe, RingOverwritesOldestFirstAndCountsDrops) {
  ProbeRing ring(16);
  for (std::uint64_t i = 0; i < 40; ++i) {
    ring.record(ProbeKind::kHandoff, /*t_ns=*/i, /*value=*/i * 10,
                /*link=*/static_cast<std::uint16_t>(i & 0xF), /*eid=*/i);
  }
  EXPECT_EQ(ring.recorded(), 40u);
  EXPECT_EQ(ring.dropped(), 24u);
  const std::vector<ProbeEntry> entries = ring.snapshot();
  ASSERT_EQ(entries.size(), 16u);
  // Oldest retained entry is #24, newest #39, strictly in order.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].t_ns, 24 + i);
    EXPECT_EQ(entries[i].value, (24 + i) * 10);
    EXPECT_EQ(entries[i].eid, 24 + i);
  }
}

TEST(RuntimeProbe, KindStringsRoundTrip) {
  for (const ProbeKind kind :
       {ProbeKind::kLinkPushFailed, ProbeKind::kLinkPop,
        ProbeKind::kControlPush, ProbeKind::kControlPop, ProbeKind::kParked,
        ProbeKind::kWakeup, ProbeKind::kHandlerMessage,
        ProbeKind::kHandlerControl, ProbeKind::kBatch, ProbeKind::kRunQueue,
        ProbeKind::kHandoff}) {
    EXPECT_EQ(probe_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)probe_kind_from_string("no-such-kind"),
               InvariantViolation);
  // The pool has no timers, so a timer kind is an unknown kind.
  EXPECT_THROW((void)probe_kind_from_string("timer_fire"),
               InvariantViolation);
}

// -------------------------------------------------------- attribution

ProbeEntry entry(ProbeKind kind, std::uint64_t t_ns, std::uint64_t value) {
  ProbeEntry e{};  // value-init: the POD has no member initializers
  e.kind = kind;
  e.t_ns = t_ns;
  e.value = value;
  e.link = kNoLane;
  return e;
}

TEST(RuntimeProbe, AttributeWindowPartitionsWallExactly) {
  // Window [0, 1000): handler [100, 300), park [300, 600), pop at 700
  // with 50ns wait ([650, 700)), rest unattributed.
  const std::vector<ProbeEntry> entries = {
      entry(ProbeKind::kHandlerMessage, 100, 200),
      entry(ProbeKind::kParked, 300, 300),
      entry(ProbeKind::kLinkPop, 700, 50),
  };
  const PhaseBreakdown phases = attribute_window(entries, 0, 1000);
  EXPECT_EQ(phases.wall_ns, 1000u);
  EXPECT_EQ(phases.executing_ns, 200u);
  EXPECT_EQ(phases.parked_ns, 300u);
  EXPECT_EQ(phases.queued_ns, 50u);
  EXPECT_EQ(phases.timer_slop_ns, 0u);
  EXPECT_EQ(phases.unattributed_ns, 450u);
  EXPECT_EQ(phases.executing_ns + phases.parked_ns + phases.queued_ns +
                phases.timer_slop_ns + phases.unattributed_ns,
            phases.wall_ns);
}

TEST(RuntimeProbe, AttributeWindowAppliesPrecedenceOnOverlap) {
  // All three phases claim [0, 100): executing must win the whole span.
  const std::vector<ProbeEntry> overlap = {
      entry(ProbeKind::kParked, 0, 100),
      entry(ProbeKind::kLinkPop, 100, 100),     // queued [0, 100)
      entry(ProbeKind::kControlPop, 100, 100),  // queued [0, 100)
      entry(ProbeKind::kHandlerControl, 0, 100),
  };
  PhaseBreakdown phases = attribute_window(overlap, 0, 100);
  EXPECT_EQ(phases.executing_ns, 100u);
  EXPECT_EQ(phases.timer_slop_ns, 0u);
  EXPECT_EQ(phases.queued_ns, 0u);
  EXPECT_EQ(phases.parked_ns, 0u);
  EXPECT_EQ(phases.unattributed_ns, 0u);

  // Without the handler, queued wins; without the pops, parked.
  phases = attribute_window({overlap[0], overlap[1], overlap[2]}, 0, 100);
  EXPECT_EQ(phases.queued_ns, 100u);
  phases = attribute_window({overlap[0], overlap[2]}, 0, 100);
  EXPECT_EQ(phases.queued_ns, 100u);
  phases = attribute_window({overlap[0]}, 0, 100);
  EXPECT_EQ(phases.parked_ns, 100u);
  EXPECT_EQ(phases.timer_slop_ns, 0u);
}

TEST(RuntimeProbe, AttributeWindowClipsIntervalsToTheWindow) {
  // Handler [50, 250) against window [100, 200): only 100ns count, and
  // an entry entirely outside contributes nothing.
  const std::vector<ProbeEntry> entries = {
      entry(ProbeKind::kHandlerMessage, 50, 200),
      entry(ProbeKind::kParked, 5000, 100),
  };
  const PhaseBreakdown phases = attribute_window(entries, 100, 200);
  EXPECT_EQ(phases.wall_ns, 100u);
  EXPECT_EQ(phases.executing_ns, 100u);
  EXPECT_EQ(phases.parked_ns, 0u);
  EXPECT_EQ(phases.unattributed_ns, 0u);
}

// ------------------------------------------------------------ document

RuntimeProbeDoc sample_doc() {
  ThreadProbeLog lane0;
  lane0.thread = 0;
  lane0.dropped = 3;
  lane0.entries = {
      entry(ProbeKind::kHandoff, 100, 2),
      entry(ProbeKind::kLinkPushFailed, 150, 900),
      entry(ProbeKind::kHandlerMessage, 1200, 400),
      entry(ProbeKind::kParked, 1600, 2000),
      entry(ProbeKind::kWakeup, 3600, 120),
      entry(ProbeKind::kBatch, 5000, 4),
  };
  lane0.entries[0].link = 1;
  lane0.entries[0].eid = 7;
  ThreadProbeLog ctl;
  ctl.thread = kControllerLane;
  ctl.entries = {entry(ProbeKind::kControlPush, 90, 1)};
  ctl.entries[0].link = 0;

  ReconfigWindow window;
  window.verb = "partition";
  window.t0_ns = 100;
  window.t1_ns = 4000;
  window.critical_thread = 0;
  window.phases = attribute_window(lane0.entries, 100, 4000);

  RuntimeProbeDoc doc;
  doc.meta = {"dv-optimized", 4, /*wheel_tick_us=*/0, /*workers=*/1};
  doc.threads = {lane0, ctl};
  doc.reconfigs = {window};
  return doc;
}

TEST(RuntimeProbe, ProbeDocumentJsonRoundTrips) {
  const RuntimeProbeDoc doc = sample_doc();
  const JsonValue json =
      runtime_probes_json(doc.meta, doc.threads, doc.reconfigs);
  EXPECT_EQ(json.at("schema_version").as_uint(),
            static_cast<std::uint64_t>(kRuntimeProbeSchemaVersion));
  EXPECT_EQ(json.at("experiment").as_string(), "runtime_probes");

  const RuntimeProbeDoc loaded = load_runtime_probes(json.dump());
  EXPECT_EQ(loaded.meta.protocol, doc.meta.protocol);
  EXPECT_EQ(loaded.meta.n, doc.meta.n);
  EXPECT_EQ(loaded.meta.wheel_tick_us, doc.meta.wheel_tick_us);
  EXPECT_EQ(loaded.meta.workers, doc.meta.workers);
  ASSERT_EQ(loaded.threads.size(), doc.threads.size());
  for (std::size_t i = 0; i < doc.threads.size(); ++i) {
    EXPECT_EQ(loaded.threads[i].thread, doc.threads[i].thread);
    EXPECT_EQ(loaded.threads[i].dropped, doc.threads[i].dropped);
    EXPECT_EQ(loaded.threads[i].entries, doc.threads[i].entries);
  }
  ASSERT_EQ(loaded.reconfigs.size(), 1u);
  EXPECT_EQ(loaded.reconfigs[0].verb, "partition");
  EXPECT_EQ(loaded.reconfigs[0].phases, doc.reconfigs[0].phases);
}

// Expects load_runtime_probes(text) to throw an InvariantViolation whose
// text has `needle`.
void expect_rejected(const std::string& text, const std::string& needle) {
  try {
    (void)load_runtime_probes(text);
    FAIL() << "document was accepted";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(RuntimeProbe, LoaderRejectsSchemaMismatch) {
  const RuntimeProbeDoc doc = sample_doc();
  const std::string text =
      runtime_probes_json(doc.meta, doc.threads, doc.reconfigs).dump();
  // JsonValue::set appends (at() reads the first match), so patch the
  // serialized text to fake a future schema version.
  const auto patched = [&text](const std::string& from,
                               const std::string& to) {
    std::string out = text;
    const std::size_t pos = out.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos) out.replace(pos, from.size(), to);
    return out;
  };
  const std::string version =
      "\"schema_version\":" + std::to_string(kRuntimeProbeSchemaVersion);
  expect_rejected(patched(version, "\"schema_version\":999"),
                  "schema version");
  // Every v3 lane is a worker: a document with no worker lanes (the
  // retired one-lane-per-process layout) is refused, naming the field.
  expect_rejected(patched("\"workers\":1", "\"workers\":0"), "\"workers\"");
  expect_rejected(patched("\"workers\":1,", ""), "\"workers\"");
}

TEST(RuntimeProbe, ChromeExportIsWellFormed) {
  const JsonValue chrome = runtime_probe_chrome_json(sample_doc());
  EXPECT_EQ(chrome.at("displayTimeUnit").as_string(), "ns");
  const auto& events = chrome.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  std::vector<std::string> open_async;
  bool saw_slice = false;
  bool saw_instant = false;
  for (const JsonValue& e : events) {
    const std::string& ph = e.at("ph").as_string();
    (void)e.at("name").as_string();
    (void)e.at("pid").as_uint();
    if (ph != "M") (void)e.at("ts").as_uint();
    if (ph == "X") {
      (void)e.at("dur").as_uint();
      saw_slice = true;
    }
    if (ph == "i") saw_instant = true;
    if (ph == "b") open_async.push_back(e.at("id").as_string());
    if (ph == "e") {
      const auto it = std::find(open_async.begin(), open_async.end(),
                                e.at("id").as_string());
      ASSERT_NE(it, open_async.end());
      open_async.erase(it);
    }
  }
  EXPECT_TRUE(open_async.empty());  // every reconfig span is balanced
  EXPECT_TRUE(saw_slice);           // handlers / parks
  EXPECT_TRUE(saw_instant);         // backpressure / handoff
}

// The one lane naming that the Chrome export and dvtrace share.
TEST(RuntimeProbe, LaneNamesAreWorkersAndController) {
  EXPECT_EQ(lane_name(0), "w0");
  EXPECT_EQ(lane_name(13), "w13");
  EXPECT_EQ(lane_name(kControllerLane), "ctl");
}

// Several processes share a worker lane, so every handler slice is
// named for the process it ran (carried in `link`); a handler entry
// with no process keeps the bare kind name.
TEST(RuntimeProbe, ChromeExportLabelsHandlerSlicesWithTheirProcess) {
  RuntimeProbeDoc doc = sample_doc();
  doc.meta.workers = 2;
  ThreadProbeLog lane1;
  lane1.thread = 1;
  lane1.entries = {
      entry(ProbeKind::kHandlerMessage, 200, 50),
      entry(ProbeKind::kHandlerControl, 300, 50),
      entry(ProbeKind::kHandlerControl, 400, 50),
      entry(ProbeKind::kHandlerMessage, 500, 50),
  };
  lane1.entries[0].link = 3;
  lane1.entries[1].link = 1;
  lane1.entries[2].link = 2;
  doc.threads.insert(doc.threads.begin() + 1, lane1);

  const JsonValue chrome = runtime_probe_chrome_json(doc);
  std::string process_name;
  std::map<std::uint64_t, std::string> lane_names;
  std::vector<std::string> lane1_slices;
  for (const JsonValue& e : chrome.at("traceEvents").as_array()) {
    const std::string& name = e.at("name").as_string();
    if (name == "process_name") {
      process_name = e.at("args").at("name").as_string();
    } else if (name == "thread_name") {
      lane_names[e.at("tid").as_uint()] = e.at("args").at("name").as_string();
    } else if (e.at("ph").as_string() == "X" && e.at("tid").as_uint() == 1) {
      lane1_slices.push_back(name);
    }
  }
  EXPECT_EQ(process_name, "dynvote-runtime dv-optimized n=4 pool W=2");
  EXPECT_EQ(lane_names,
            (std::map<std::uint64_t, std::string>{
                {0, "w0"}, {1, "w1"}, {kControllerLane, "ctl"}}));
  EXPECT_EQ(lane1_slices, (std::vector<std::string>{"h:msg p3", "h:ctl p1",
                                                    "h:ctl p2", "h:msg"}));
}

// ------------------------------------------------------------ integration

TEST(RuntimeProbe, FleetWithoutProbesReturnsNoLogs) {
  FleetOptions options;
  options.n = 3;
  RuntimeFleet fleet(options);
  fleet.start();
  EXPECT_TRUE(fleet.probe_logs().empty());
  fleet.stop();
}

// The digest-neutrality contract: the probed runtime makes exactly the
// protocol decisions the unprobed one (and the DES) makes, at every
// worker count — probes must not perturb pool scheduling decisions.
TEST(RuntimeProbe, ProbesAreDigestNeutral) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const runtime::CrossCheckResult off = runtime::run_scenario(
        ProtocolKind::kOptimized, 4, seed, 10, /*probes=*/false, {1, 2});
    const runtime::CrossCheckResult on = runtime::run_scenario(
        ProtocolKind::kOptimized, 4, seed, 10, /*probes=*/true, {1, 2});
    EXPECT_TRUE(on.digests_equal) << "seed " << seed;
    ASSERT_EQ(on.pool.size(), 3u);  // W = 1, 2 and n
    ASSERT_EQ(on.pool.size(), off.pool.size());
    for (std::size_t i = 0; i < on.pool.size(); ++i) {
      EXPECT_EQ(on.pool[i].digest, off.pool[i].digest)
          << "seed " << seed << " W=" << on.pool[i].workers;
    }
  }
}

// The pool records no timer kind, so a real run attributes nothing to
// timer slop: the field and the wheel tick stay in the v3 document only
// for its shape, and read 0.
TEST(RuntimeProbe, PoolRunAttributesNoTimeToTimerSlop) {
  static_assert(runtime::RuntimeOptions::wheel_tick_us == 0);
  FleetOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 4;
  options.workers = 2;
  options.runtime.probes = true;
  RuntimeFleet fleet(options);
  fleet.start();
  ProcessSet left;
  ProcessSet right;
  for (std::uint32_t i = 0; i < 2; ++i) left.insert(ProcessId(i));
  for (std::uint32_t i = 2; i < 4; ++i) right.insert(ProcessId(i));
  fleet.partition({left, right});
  fleet.merge();
  fleet.crash(ProcessId(3));
  fleet.recover(ProcessId(3));
  const std::vector<ThreadProbeLog> logs = fleet.probe_logs();
  fleet.stop();

  std::uint64_t executing = 0;
  std::uint64_t parked = 0;
  for (const ThreadProbeLog& lane : logs) {
    std::uint64_t end_ns = 0;
    for (const ProbeEntry& e : lane.entries) {
      end_ns = std::max(end_ns, e.t_ns + e.value);
    }
    const PhaseBreakdown phases = attribute_window(lane.entries, 0, end_ns);
    EXPECT_EQ(phases.timer_slop_ns, 0u) << lane_name(lane.thread);
    EXPECT_EQ(phases.executing_ns + phases.parked_ns + phases.queued_ns +
                  phases.unattributed_ns,
              phases.wall_ns)
        << lane_name(lane.thread);
    executing += phases.executing_ns;
    parked += phases.parked_ns;
  }
  EXPECT_GT(executing, 0u);
  EXPECT_GT(parked, 0u);
}

// ---------------------------------------------------------- eventcount

// Wakeup stress across 4 worker threads, meant for the TSan pass: heavy
// topology churn forces the park/notify edge constantly. Every verb
// runs to quiescence, so merely completing proves no wakeup was lost
// (a lost wakeup leaves a thread parked with work pending and the
// quiesce barrier never closes); the probe rings then bound the
// observed notify-to-running latency. The worker count is pinned so
// the stress keeps its 4 threads on a 1-core host.
TEST(RuntimeEventcount, ChurnHasNoLostWakeupsAndBoundedLatency) {
  FleetOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 4;
  options.workers = 4;
  options.runtime.probes = true;
  RuntimeFleet fleet(options);
  fleet.start();
  ProcessSet left;
  ProcessSet right;
  for (std::uint32_t i = 0; i < 2; ++i) left.insert(ProcessId(i));
  for (std::uint32_t i = 2; i < 4; ++i) right.insert(ProcessId(i));
  for (int round = 0; round < 5; ++round) {
    fleet.partition({left, right});
    fleet.merge();
    fleet.crash(ProcessId(3));
    fleet.recover(ProcessId(3));
    fleet.merge();
  }
  const std::vector<ThreadProbeLog> logs = fleet.probe_logs();
  fleet.stop();

  std::uint64_t parks = 0;
  std::uint64_t wakeups = 0;
  for (const ThreadProbeLog& lane : logs) {
    for (const ProbeEntry& e : lane.entries) {
      if (e.kind == ProbeKind::kParked) ++parks;
      if (e.kind == ProbeKind::kWakeup) {
        ++wakeups;
        // Generous bound: the CI box is single-core, so a wakeup can
        // wait out several scheduler quanta — but never seconds.
        EXPECT_LT(e.value, 2'000'000'000u);
      }
    }
  }
  EXPECT_GT(parks, 0u);
  EXPECT_GT(wakeups, 0u);
}

}  // namespace
}  // namespace dynvote::obs
