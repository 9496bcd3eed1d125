// dvtrace: query and export tool for exported trace.json files.
//
//   dvtrace timeline <trace.json>            chronological event listing
//   dvtrace explain-abort <trace.json> [id]  causal chain of an abort
//   dvtrace ambiguity <trace.json>           ambiguous-record lifetimes +
//                                            Theorem-1 bound check
//   dvtrace spans <trace.json> [--out f]     span report as JSON
//   dvtrace export-chrome <trace.json> [--out f]
//                                            Chrome trace-event / Perfetto
//                                            JSON (validated before write)
//   dvtrace fleet <fleet_telemetry.json>     fleet health report: per-shard
//                                            table, slowest reconfigs with
//                                            flight-recorder root causes,
//                                            time series, post-mortems
//   dvtrace runtime <runtime_probes.json>    wall-clock probe report: per-lane
//                                            summary, per-worker scheduler
//                                            table, reconfiguration phase
//                                            breakdown, merged cross-lane
//                                            drill-down of the slowest window,
//                                            optional Chrome trace export
//
// Trace commands accept `--group G` on sharded traces (meta carries the
// fleet shape): the trace is restricted to group G's events before the
// command runs, so timeline/ambiguity/spans read as single-group runs.
//
// `fleet` takes the telemetry document bench_shards exports (NOT a
// trace); `--top K` bounds the slowest-reconfiguration listing and
// `--expect-postmortem` makes the exit code assert that at least one
// post-mortem with an intact causal chain is present (the violation-demo
// check in run_experiments.sh).
//
// `runtime` takes the probe document bench_runtime exports (also not a
// trace): one lane per pool worker plus the controller. `--top K` bounds
// the slowest-window drill-down and `--chrome FILE` writes a validated
// Chrome trace-event export (one tid per lane, handler slices named for
// their process, an async span per reconfiguration).
//
// Exit codes: 0 success, 1 a check failed (Theorem-1 bound exceeded, no
// causal root, Chrome JSON invalid, missing expected post-mortem),
// 2 usage or I/O error: a malformed document, or an argument the usage
// does not allow, such as a non-numeric --top, --group or view id.
//
// Everything here works from the file alone — the tool never needs the
// process that produced the trace (see docs/OBSERVABILITY.md).

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "harness/trace_replay.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_probe.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using dynvote::JsonValue;
using dynvote::TraceMetaAndEvents;
using dynvote::obs::SpanReport;
using dynvote::obs::TraceEvent;
using dynvote::obs::TraceEventKind;

int usage() {
  std::cerr
      << "usage: dvtrace <command> <trace.json> [args]\n"
         "  timeline <trace.json>                 list events in order\n"
         "  explain-abort <trace.json> [view-id]  causal chain of an abort\n"
         "                                        (default: the last abort)\n"
         "  ambiguity <trace.json>                lifetimes + Theorem-1 check\n"
         "  spans <trace.json> [--out FILE]       span report JSON\n"
         "  export-chrome <trace.json> [--out FILE]\n"
         "                                        Chrome trace-event JSON\n"
         "  fleet <fleet_telemetry.json> [--top K] [--expect-postmortem]\n"
         "                                        fleet health report\n"
         "  runtime <runtime_probes.json> [--top K] [--chrome FILE]\n"
         "                                        wall-clock probe report\n"
         "trace commands accept --group G on sharded traces (restricts\n"
         "the trace to group G before the command runs)\n";
  return 2;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return out.good();
}

int cmd_timeline(const TraceMetaAndEvents& trace) {
  std::cout << "protocol=" << trace.meta.protocol << " n=" << trace.meta.n
            << " min_quorum=" << trace.meta.min_quorum
            << " seed=" << trace.meta.seed << " events="
            << trace.events.size();
  if (trace.meta.overwritten != 0) {
    std::cout << " (TRUNCATED: " << trace.meta.overwritten << " evicted)";
  }
  std::cout << "\n";
  for (const TraceEvent& event : trace.events) {
    std::cout << describe(event) << "\n";
  }
  return 0;
}

int cmd_explain_abort(const TraceMetaAndEvents& trace,
                      std::optional<std::int64_t> view_id) {
  const TraceEvent* abort_event = nullptr;
  for (const TraceEvent& event : trace.events) {
    if (event.kind != TraceEventKind::kSessionAbort) continue;
    if (view_id && event.number != *view_id) continue;
    abort_event = &event;  // keep the last match
  }
  if (abort_event == nullptr) {
    std::cerr << "dvtrace: no matching session abort in trace\n";
    return 1;
  }

  const auto chain =
      dynvote::obs::causal_chain(trace.events, abort_event->eid);
  std::cout << "abort of view " << abort_event->number << " at p"
            << abort_event->a.value() << ", reason: " << abort_event->detail
            << "\ncausal chain (root first):\n";
  for (std::size_t i = 0; i < chain.size(); ++i) {
    std::cout << std::string(2 * i, ' ') << describe(*chain[i]) << "\n";
  }
  if (chain.empty() || chain.front()->cause != 0) {
    std::cerr << "dvtrace: chain truncated (root evicted by the ring "
                 "bound)\n";
    return 1;
  }
  std::cout << "root cause: " << to_string(chain.front()->kind) << " #"
            << chain.front()->eid << "\n";
  return 0;
}

int cmd_ambiguity(const TraceMetaAndEvents& trace, const SpanReport& report) {
  const auto& d = report.derived;
  for (const auto& span : report.ambiguity) {
    std::cout << "p" << span.process.value() << " session " << span.number
              << " " << span.members.to_string() << " [" << span.start << "us"
              << ", " << span.end << "us] " << span.resolution << "\n";
  }
  std::cout << "records=" << report.ambiguity.size()
            << " max_simultaneous=" << d.max_open_ambiguity
            << " max_level=" << d.max_ambiguity_level
            << " time_in_ambiguity=" << d.time_in_ambiguity_ticks << "us"
            << " horizon=" << d.horizon << "us\n";
  if (trace.meta.ambiguity_bound != 0) {
    const auto bound =
        static_cast<std::uint64_t>(trace.meta.ambiguity_bound);
    if (d.max_open_ambiguity > bound || d.max_ambiguity_level > bound) {
      std::cerr << "dvtrace: Theorem-1 bound violated: "
                << "max_simultaneous=" << d.max_open_ambiguity
                << " max_level=" << d.max_ambiguity_level << " bound=" << bound
                << "\n";
      return 1;
    }
    std::cout << "Theorem-1 bound ok (<= " << bound << ")\n";
  } else {
    std::cout << "Theorem-1 bound not applicable to this protocol\n";
  }
  return 0;
}

// -- fleet health report -------------------------------------------------------

std::uint64_t counter_of(const JsonValue& registry, std::string_view name) {
  const JsonValue* counters = registry.find("counters");
  if (counters == nullptr) return 0;
  const JsonValue* value = counters->find(name);
  return value == nullptr ? 0 : value->as_uint();
}

/// An exported histogram: summary stats plus the sparse [index, count]
/// bucket pairs re-densified so histogram_quantile can walk them.
/// `unit` is the explicit metadata stamped by MetricsRegistry::to_json
/// since telemetry schema v2 ("ticks" | "ns" | "us" | "bytes"); empty on
/// older documents or unitless histograms.
struct ExportedHistogram {
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::string unit;
  std::vector<std::uint64_t> buckets;

  [[nodiscard]] double quantile(double q) const {
    return dynvote::obs::histogram_quantile(buckets, count, min, max, q);
  }
};

std::optional<ExportedHistogram> histogram_of(const JsonValue& registry,
                                              std::string_view name) {
  const JsonValue* histograms = registry.find("histograms");
  if (histograms == nullptr) return std::nullopt;
  const JsonValue* value = histograms->find(name);
  if (value == nullptr) return std::nullopt;
  ExportedHistogram out;
  out.count = value->at("count").as_uint();
  out.min = value->at("min").as_uint();
  out.max = value->at("max").as_uint();
  if (const JsonValue* unit = value->find("unit")) out.unit = unit->as_string();
  // Empty histograms export no "buckets" key at all.
  if (const JsonValue* buckets = value->find("buckets")) {
    for (const JsonValue& pair : buckets->as_array()) {
      const auto index = pair.as_array().at(0).as_uint();
      const auto bucket_count = pair.as_array().at(1).as_uint();
      if (index >= out.buckets.size()) out.buckets.resize(index + 1, 0);
      out.buckets[index] = bucket_count;
    }
  }
  return out;
}

/// Renders one post-mortem: header, then the causal chain of each
/// anchor, root first, reusing the timeline's describe() format so eids
/// line up with any full trace export of the same run.
void render_postmortem(const JsonValue& postmortem, std::size_t index) {
  std::cout << "[" << index << "] group " << postmortem.at("group").as_uint()
            << " at " << postmortem.at("time").as_uint() << "us: "
            << postmortem.at("reason").as_string() << "\n"
            << "    ring: " << postmortem.at("events").as_array().size()
            << " event(s), " << postmortem.at("dropped").as_uint()
            << " evicted\n";
  std::unordered_map<std::uint64_t, TraceEvent> by_eid;
  for (const JsonValue& event_json : postmortem.at("events").as_array()) {
    const TraceEvent event = dynvote::obs::trace_event_from_json(event_json);
    by_eid.emplace(event.eid, event);
  }
  for (const JsonValue& chain : postmortem.at("chains").as_array()) {
    std::cout << "    chain for #" << chain.at("for").as_uint();
    if (chain.at("truncated").as_bool()) {
      std::cout << " (TRUNCATED: root cause evicted from the ring)";
    }
    std::cout << "\n";
    std::size_t depth = 0;
    for (const JsonValue& eid : chain.at("eids").as_array()) {
      const auto it = by_eid.find(eid.as_uint());
      std::cout << std::string(6 + 2 * depth++, ' ');
      if (it == by_eid.end()) {
        std::cout << "#" << eid.as_uint() << " (not in ring)\n";
      } else {
        std::cout << describe(it->second) << "\n";
      }
    }
  }
}

/// Whether at least one post-mortem carries an intact (non-truncated)
/// causal chain — what --expect-postmortem asserts.
bool any_intact_postmortem(const JsonValue& postmortems) {
  for (const JsonValue& postmortem : postmortems.as_array()) {
    for (const JsonValue& chain : postmortem.at("chains").as_array()) {
      if (!chain.at("truncated").as_bool()) return true;
    }
  }
  return false;
}

int cmd_fleet(const JsonValue& doc, std::size_t top,
              bool expect_postmortem) {
  const auto num_groups = doc.at("num_groups").as_uint();
  std::cout << "fleet: " << num_groups << " group(s) x "
            << doc.at("group_size").as_uint() << " replicas on "
            << doc.at("num_machines").as_uint() << " machine(s), protocol="
            << doc.at("protocol").as_string() << " (schema v"
            << doc.at("schema_version").as_uint() << ")\n";

  // Rollup: the deterministic cross-group aggregate.
  const JsonValue& rollup = doc.at("rollup");
  std::cout << "rollup: formed=" << counter_of(rollup, "dv.formed")
            << " rejected=" << counter_of(rollup, "dv.rejected")
            << " reconfigs=" << counter_of(rollup, "shard.reconfigs")
            << " views=" << counter_of(rollup, "dv.views_installed")
            << " primary_uptime=" << counter_of(rollup, "dv.primary_uptime_ticks")
            << "us time_in_ambiguity="
            << counter_of(rollup, "dv.ambiguity_ticks") << "us\n\n";

  // Per-shard health table; percentiles recomputed from each group's
  // exported bucket counts. Latency column unit comes from the explicit
  // histogram metadata (schema v2); pre-v2 documents fall back to the
  // historical tick label.
  const JsonValue& groups = doc.at("groups");
  std::string latency_unit = "ticks";
  for (const JsonValue& registry : groups.as_array()) {
    const auto latency = histogram_of(registry, "shard.reconfig_latency_ticks");
    if (latency && !latency->unit.empty()) latency_unit = latency->unit;
    if (latency) break;
  }
  dynvote::Table table({"group", "formed", "reconfigs",
                        "p50 reconf " + latency_unit,
                        "p99 reconf " + latency_unit, "ambiguity us"});
  for (std::size_t g = 0; g < groups.as_array().size(); ++g) {
    const JsonValue& registry = groups.as_array()[g];
    const auto latency = histogram_of(registry, "shard.reconfig_latency_ticks");
    table.add_row(
        {std::to_string(g), std::to_string(counter_of(registry, "dv.formed")),
         std::to_string(counter_of(registry, "shard.reconfigs")),
         latency ? dynvote::format_double(latency->quantile(0.50), 0) : "-",
         latency ? dynvote::format_double(latency->quantile(0.99), 0) : "-",
         std::to_string(counter_of(registry, "dv.ambiguity_ticks"))});
  }
  std::cout << table.to_string() << "\n";

  // Slowest reconfigurations, annotated with any post-mortem the same
  // group's flight recorder dumped (the root-cause pointer).
  const JsonValue& postmortems = doc.at("postmortems");
  const JsonValue& slowest = doc.at("slowest_reconfigs");
  const std::size_t shown = std::min(top, slowest.as_array().size());
  std::cout << "slowest reconfigurations (top " << shown << " of "
            << counter_of(rollup, "shard.reconfigs") << "):\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const JsonValue& entry = slowest.as_array()[i];
    const auto group = entry.at("group").as_uint();
    std::cout << "  " << (i + 1) << ". group " << group << ": "
              << entry.at("latency_ticks").as_uint() << " ticks (fault @"
              << entry.at("fault_time").as_uint() << "us -> formed @"
              << entry.at("formed_time").as_uint() << "us)";
    for (std::size_t p = 0; p < postmortems.as_array().size(); ++p) {
      if (postmortems.as_array()[p].at("group").as_uint() == group) {
        std::cout << " [post-mortem " << p << "]";
        break;
      }
    }
    std::cout << "\n";
  }

  // Time series: sample count and the peak windowed rate per counter.
  const JsonValue& timeseries = doc.at("timeseries");
  const auto samples = timeseries.at("times").as_array().size();
  std::cout << "\ntime series: " << samples << " sample(s), tick="
            << timeseries.at("tick").as_uint() << "us, dropped="
            << timeseries.at("dropped").as_uint() << "\n";
  for (const auto& [name, series] : timeseries.at("counters").as_object()) {
    double peak = 0;
    for (const JsonValue& rate : series.at("rates").as_array()) {
      peak = std::max(peak, rate.as_double());
    }
    std::cout << "  " << name << ": peak rate "
              << dynvote::format_double(peak, 1) << "/virtual-sec\n";
  }

  std::cout << "\npost-mortems: " << postmortems.as_array().size() << "\n";
  for (std::size_t p = 0; p < postmortems.as_array().size(); ++p) {
    render_postmortem(postmortems.as_array()[p], p);
  }

  if (expect_postmortem && !any_intact_postmortem(postmortems)) {
    std::cerr << "dvtrace: expected a post-mortem with an intact causal "
                 "chain, found none\n";
    return 1;
  }
  return 0;
}

int emit_json(const JsonValue& doc, const std::string& out_path) {
  const std::string text = doc.dump();
  if (out_path.empty()) {
    std::cout << text << "\n";
    return 0;
  }
  if (!write_file(out_path, text + "\n")) {
    std::cerr << "dvtrace: cannot write " << out_path << "\n";
    return 2;
  }
  std::cout << "wrote " << out_path << " (" << text.size() + 1 << " bytes)\n";
  return 0;
}

/// Validates a Chrome trace-event document by re-parsing its own dump:
/// traceEvents must be an array, every entry needs name/ph/pid/ts, "X"
/// entries need dur, and async "b"/"e" pairs must balance per id.
bool validate_chrome(const JsonValue& doc, std::string& error) {
  try {
    const JsonValue reparsed = JsonValue::parse(doc.dump());
    const JsonValue& events = reparsed.at("traceEvents");
    std::vector<std::string> open_async;
    for (const JsonValue& e : events.as_array()) {
      const std::string& ph = e.at("ph").as_string();
      (void)e.at("name").as_string();
      (void)e.at("pid").as_uint();
      if (ph != "M") (void)e.at("ts").as_uint();
      if (ph == "X") (void)e.at("dur").as_uint();
      if (ph == "b") open_async.push_back(e.at("id").as_string());
      if (ph == "e") {
        const std::string& id = e.at("id").as_string();
        const auto it =
            std::find(open_async.begin(), open_async.end(), id);
        if (it == open_async.end()) {
          error = "async end without begin (id " + id + ")";
          return false;
        }
        open_async.erase(it);
      }
    }
    if (!open_async.empty()) {
      error = std::to_string(open_async.size()) + " unbalanced async begins";
      return false;
    }
  } catch (const dynvote::JsonError& e) {
    error = e.what();
    return false;
  }
  return true;
}

/// Writes a Chrome trace-event document as emit_json does, once
/// validate_chrome accepts it.
int emit_chrome(const JsonValue& doc, const std::string& out_path) {
  std::string error;
  if (!validate_chrome(doc, error)) {
    std::cerr << "dvtrace: invalid Chrome trace JSON: " << error << "\n";
    return 1;
  }
  return emit_json(doc, out_path);
}

// -- runtime probe report ------------------------------------------------------

using dynvote::obs::lane_name;
using dynvote::obs::ProbeEntry;
using dynvote::obs::ProbeKind;
using dynvote::obs::ReconfigWindow;
using dynvote::obs::RuntimeProbeDoc;

/// One merged-timeline line. `value` is kind-specific: a queue depth
/// for pushes and run-queue entries, a batch size for batches, a
/// nanosecond duration for everything else (see ProbeKind).
std::string describe_probe(std::uint32_t thread, const ProbeEntry& e) {
  std::string out =
      "[" +
      dynvote::format_double(static_cast<double>(e.t_ns) / 1000.0, 1) +
      "us] " + lane_name(thread) + " " + std::string(to_string(e.kind));
  switch (e.kind) {
    case ProbeKind::kControlPush:
    case ProbeKind::kRunQueue:
    case ProbeKind::kHandoff:
      out += " depth=" + std::to_string(e.value);
      break;
    case ProbeKind::kBatch:
      out += " size=" + std::to_string(e.value);
      break;
    default:
      if (e.value != 0) {
        out += " " +
               dynvote::format_double(
                   static_cast<double>(e.value) / 1000.0, 1) +
               "us";
      }
      break;
  }
  if (e.link == dynvote::obs::kControllerLane) {
    out += " link=ctl";
  } else if (e.link != dynvote::obs::kNoLane) {
    // Handler entries link the HANDLING PROCESS (several share a worker
    // lane); transfer entries link the peer lane.
    out += " link=" + std::to_string(e.link);
  }
  if (e.eid != 0) out += " <- #" + std::to_string(e.eid);
  return out;
}

/// Per-worker scheduler table: how well the M:N scheduler batches (the
/// cross-ring batch-size distribution, as a compact power-of-two
/// histogram), how deep the same-worker run queue gets, and how many
/// cross-worker handoffs each worker pushed.
void print_pool_lanes(const RuntimeProbeDoc& doc) {
  dynvote::Table pool({"worker", "batches", "batch p50", "batch max",
                       "batch size histogram", "runq p50", "runq max",
                       "handoffs"});
  for (const auto& lane : doc.threads) {
    if (lane.thread == dynvote::obs::kControllerLane) continue;
    dynvote::Summary batch;
    dynvote::Summary runq;
    std::uint64_t handoffs = 0;
    // Power-of-two batch-size buckets: [1], [2], [3-4], [5-8], ...
    std::vector<std::uint64_t> buckets;
    for (const ProbeEntry& e : lane.entries) {
      switch (e.kind) {
        case ProbeKind::kBatch: {
          batch.add(static_cast<double>(e.value));
          std::size_t b = 0;
          while ((1ull << b) < e.value) ++b;
          if (buckets.size() <= b) buckets.resize(b + 1);
          ++buckets[b];
          break;
        }
        case ProbeKind::kRunQueue:
          runq.add(static_cast<double>(e.value));
          break;
        case ProbeKind::kHandoff:
          ++handoffs;
          break;
        default:
          break;
      }
    }
    std::string histogram;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b] == 0) continue;
      if (!histogram.empty()) histogram += " ";
      histogram += "<=" + std::to_string(1ull << b) + ":" +
                   std::to_string(buckets[b]);
    }
    pool.add_row(
        {lane_name(lane.thread),
         std::to_string(static_cast<std::uint64_t>(batch.count())),
         batch.empty() ? "-" : dynvote::format_double(batch.percentile(0.5), 0),
         batch.empty() ? "-" : dynvote::format_double(batch.max(), 0),
         histogram.empty() ? "-" : histogram,
         runq.empty() ? "-" : dynvote::format_double(runq.percentile(0.5), 0),
         runq.empty() ? "-" : dynvote::format_double(runq.max(), 0),
         std::to_string(handoffs)});
  }
  std::cout << "pool scheduler (one lane per worker):\n"
            << pool.to_string() << "\n";
}

int cmd_runtime(const RuntimeProbeDoc& doc, std::size_t top,
                const std::string& chrome_path) {
  std::size_t total_events = 0;
  std::uint64_t total_dropped = 0;
  for (const auto& lane : doc.threads) {
    total_events += lane.entries.size();
    total_dropped += lane.dropped;
  }
  std::cout << "runtime probes: protocol=" << doc.meta.protocol
            << " n=" << doc.meta.n << " workers=" << doc.meta.workers
            << " wheel_tick=" << doc.meta.wheel_tick_us
            << "us lanes=" << doc.threads.size()
            << " events=" << total_events;
  if (total_dropped != 0) {
    std::cout << " (TRUNCATED: " << total_dropped << " evicted)";
  }
  std::cout << "\n\n";

  // Per-lane summary; wakeup p99 recomputed directly from the retained
  // entries (the exact samples, not histogram buckets).
  dynvote::Table lanes({"lane", "events", "dropped", "pushes", "pops",
                        "backpressure", "parks", "park ms", "wakeup p99 us",
                        "handlers"});
  for (const auto& lane : doc.threads) {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t failed = 0;
    std::uint64_t parks = 0;
    std::uint64_t handlers = 0;
    std::uint64_t park_ns = 0;
    dynvote::Summary wakeups;
    for (const ProbeEntry& e : lane.entries) {
      switch (e.kind) {
        case ProbeKind::kHandoff:
        case ProbeKind::kControlPush:
          ++pushes;
          break;
        case ProbeKind::kLinkPop:
        case ProbeKind::kControlPop:
          ++pops;
          break;
        case ProbeKind::kLinkPushFailed:
          ++failed;
          break;
        case ProbeKind::kParked:
          ++parks;
          park_ns += e.value;
          break;
        case ProbeKind::kWakeup:
          wakeups.add(static_cast<double>(e.value));
          break;
        case ProbeKind::kHandlerMessage:
        case ProbeKind::kHandlerControl:
          ++handlers;
          break;
        default:
          break;
      }
    }
    lanes.add_row(
        {lane_name(lane.thread), std::to_string(lane.entries.size()),
         std::to_string(lane.dropped), std::to_string(pushes),
         std::to_string(pops), std::to_string(failed), std::to_string(parks),
         dynvote::format_double(static_cast<double>(park_ns) / 1e6, 1),
         wakeups.empty()
             ? "-"
             : dynvote::format_double(wakeups.percentile(0.99) / 1000.0, 1),
         std::to_string(handlers)});
  }
  std::cout << lanes.to_string() << "\n";

  // The scheduler's own table: batching quality, run-queue depths,
  // handoff counts per worker.
  print_pool_lanes(doc);

  // Phase breakdown per reconfiguration window, attributed on the
  // critical (last-forming) lane by the bench.
  const auto pct = [](std::uint64_t part, std::uint64_t wall) {
    return wall == 0 ? std::string("-")
                     : dynvote::format_double(
                           100.0 * static_cast<double>(part) /
                               static_cast<double>(wall),
                           1);
  };
  dynvote::Table reconfigs({"#", "verb", "critical", "wall us", "queued %",
                            "parked %", "exec %", "slop %", "unattr %"});
  const ReconfigWindow* slowest = nullptr;
  std::size_t slowest_index = 0;
  for (std::size_t i = 0; i < doc.reconfigs.size(); ++i) {
    const ReconfigWindow& w = doc.reconfigs[i];
    reconfigs.add_row(
        {std::to_string(i), w.verb, lane_name(w.critical_thread),
         dynvote::format_double(static_cast<double>(w.phases.wall_ns) / 1000.0,
                                1),
         pct(w.phases.queued_ns, w.phases.wall_ns),
         pct(w.phases.parked_ns, w.phases.wall_ns),
         pct(w.phases.executing_ns, w.phases.wall_ns),
         pct(w.phases.timer_slop_ns, w.phases.wall_ns),
         pct(w.phases.unattributed_ns, w.phases.wall_ns)});
    if (slowest == nullptr || w.phases.wall_ns > slowest->phases.wall_ns) {
      slowest = &w;
      slowest_index = i;
    }
  }
  std::cout << "reconfigurations: " << doc.reconfigs.size() << "\n"
            << reconfigs.to_string() << "\n";

  // Drill-down: every lane's entries stamped inside the slowest window,
  // merged into one timeline ordered by wall-clock nanosecond.
  if (slowest != nullptr) {
    std::vector<std::pair<std::uint32_t, ProbeEntry>> merged;
    for (const auto& lane : doc.threads) {
      for (const ProbeEntry& e : lane.entries) {
        if (e.t_ns >= slowest->t0_ns && e.t_ns < slowest->t1_ns) {
          merged.emplace_back(lane.thread, e);
        }
      }
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const auto& a, const auto& b) {
                       return a.second.t_ns < b.second.t_ns;
                     });
    const std::size_t shown = std::min(top, merged.size());
    std::cout << "slowest reconfiguration: #" << slowest_index << " "
              << slowest->verb << " wall="
              << dynvote::format_double(
                     static_cast<double>(slowest->phases.wall_ns) / 1000.0, 1)
              << "us critical=" << lane_name(slowest->critical_thread)
              << ", merged timeline (first " << shown << " of "
              << merged.size() << " events):\n";
    for (std::size_t i = 0; i < shown; ++i) {
      std::cout << "  "
                << describe_probe(merged[i].first, merged[i].second)
                << "\n";
    }
  }

  if (!chrome_path.empty()) {
    return emit_chrome(dynvote::obs::runtime_probe_chrome_json(doc),
                       chrome_path);
  }
  return 0;
}

/// One invocation, parsed and validated before the document is read.
struct Args {
  std::string command;
  std::string path;
  std::size_t top = 32;            // fleet (default 8), runtime
  bool expect_postmortem = false;  // fleet
  std::string chrome_path;         // runtime
  std::string out_path;            // spans, export-chrome; empty = stdout
  std::optional<std::uint32_t> group;   // trace commands
  std::optional<std::int64_t> view_id;  // explain-abort
};

/// Whether all of `text` is a decimal number, stored in `value`.
template <typename T>
bool parse_number(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

/// Nothing when the arguments do not form a valid invocation, including
/// a non-numeric value where a number belongs.
std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 3) return std::nullopt;
  Args args;
  args.command = argv[1];
  args.path = argv[2];
  const std::string& c = args.command;
  const bool trace = c == "timeline" || c == "explain-abort" ||
                     c == "ambiguity" || c == "spans" || c == "export-chrome";
  if (!trace && c != "fleet" && c != "runtime") return std::nullopt;
  if (c == "fleet") args.top = 8;
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    bool ok = true;
    if (arg == "--top" && !trace && has_value) {
      ok = parse_number(argv[++i], args.top);
    } else if (arg == "--group" && trace && has_value) {
      ok = parse_number(argv[++i], args.group.emplace());
    } else if (arg == "--expect-postmortem" && c == "fleet") {
      args.expect_postmortem = true;
    } else if (arg == "--chrome" && c == "runtime" && has_value) {
      args.chrome_path = argv[++i];
    } else if (arg == "--out" && (c == "spans" || c == "export-chrome") &&
               has_value) {
      args.out_path = argv[++i];
    } else if (c == "explain-abort" && !args.view_id &&
               !arg.starts_with('-')) {
      ok = parse_number(arg, args.view_id.emplace());
    } else {
      ok = false;
    }
    if (!ok) return std::nullopt;
  }
  return args;
}

/// Reads the document, parses it as the command's kind and reports.
/// Throws on a malformed document.
int run(const Args& args) {
  const auto text = read_file(args.path);
  if (!text) {
    std::cerr << "dvtrace: cannot read " << args.path << "\n";
    return 2;
  }
  if (args.command == "fleet") {
    return cmd_fleet(JsonValue::parse(*text), args.top,
                     args.expect_postmortem);
  }
  if (args.command == "runtime") {
    return cmd_runtime(dynvote::obs::load_runtime_probes(*text), args.top,
                       args.chrome_path);
  }

  TraceMetaAndEvents trace = dynvote::load_trace_json(*text);
  // `--group G` restricts a sharded trace to one group before any
  // command runs; the narrowed meta makes span folding and the
  // Theorem-1 check meaningful per group.
  if (args.group) {
    if (trace.meta.group_size == 0) {
      std::cerr << "dvtrace: --group needs a sharded trace (this meta "
                   "carries no fleet shape)\n";
      return 2;
    }
    if (*args.group >= trace.meta.num_groups) {
      std::cerr << "dvtrace: group " << *args.group
                << " out of range (trace has " << trace.meta.num_groups
                << " groups)\n";
      return 2;
    }
    trace = dynvote::filter_trace_group(trace, *args.group);
  }

  if (args.command == "timeline") return cmd_timeline(trace);
  if (args.command == "explain-abort") {
    return cmd_explain_abort(trace, args.view_id);
  }

  const SpanReport report = dynvote::obs::build_spans(trace.events);
  if (args.command == "ambiguity") return cmd_ambiguity(trace, report);
  if (args.command == "spans") {
    return emit_json(dynvote::obs::spans_to_json(report), args.out_path);
  }
  return emit_chrome(
      dynvote::obs::chrome_trace_json(trace.meta, trace.events, report),
      args.out_path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) return usage();
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::cerr << "dvtrace: " << args->path << ": " << e.what() << "\n";
    return 2;
  }
}
