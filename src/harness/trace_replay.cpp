#include "harness/trace_replay.hpp"

#include <algorithm>
#include <set>

#include "dv/service.hpp"
#include "harness/events.hpp"
#include "util/ensure.hpp"

namespace dynvote {

TraceCheckResult check_trace(const TraceMetaAndEvents& trace) {
  TraceCheckResult result;
  result.ambiguity_bound = trace.meta.ambiguity_bound;
  if (trace.meta.overwritten > 0) {
    result.truncated = true;
    result.violations.push_back(Violation{
        "truncated-trace",
        std::to_string(trace.meta.overwritten) +
            " events evicted by the ring bound before export; the stream "
            "is a suffix, so replay verdicts are not evidence"});
  }

  // The groups of the live Cluster: dense group-major id ranges, and a
  // process past them (Cluster::add_process) in group 0.
  const std::uint32_t num_groups = std::max(trace.meta.num_groups, 1u);
  const auto group_of = [&](ProcessId p) {
    if (trace.meta.group_size == 0) return 0u;
    const std::uint32_t g = p.value() / trace.meta.group_size;
    return g < num_groups ? g : 0u;
  };
  std::vector<ProcessSet> cores(num_groups);
  for (const ProcessId p : trace.meta.core) cores[group_of(p)].insert(p);

  // Cluster::add_group seeds F0 for every protocol but static majority.
  // A --group-filtered trace keeps only its own group's core, so only
  // that group is seeded.
  const bool seed_initial =
      trace.meta.protocol != to_string(ProtocolKind::kStaticMajority);
  std::vector<ConsistencyChecker> checkers;
  std::vector<MetricsObserver> observers;
  checkers.reserve(num_groups);
  observers.reserve(num_groups);
  for (const ProcessSet& core : cores) {
    checkers.emplace_back(core, seed_initial);
    observers.emplace_back(result.metrics);
  }
  for (const obs::TraceEvent& event : trace.events) {
    // Both listeners ignore the kinds a live Cluster does not route.
    const std::uint32_t g = group_of(event.a);
    checkers[g].note(event);
    observers[g].note(event);
  }

  const bool several_groups =
      std::count_if(cores.begin(), cores.end(),
                    [](const ProcessSet& core) { return !core.empty(); }) > 1;
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    for (Violation& v : checkers[g].check_all()) {
      if (several_groups) {
        v.detail = "group " + std::to_string(g) + ": " + v.detail;
      }
      result.violations.push_back(std::move(v));
    }
    result.formed_sessions += checkers[g].formed_session_count();
    result.max_ambiguous =
        std::max(result.max_ambiguous, checkers[g].max_ambiguous());
  }
  if (result.ambiguity_bound != 0) {
    result.ambiguity_ok = result.max_ambiguous <= result.ambiguity_bound;
  }
  return result;
}

std::vector<std::string> diff_observer_metrics(
    const obs::MetricsRegistry& replayed, const obs::MetricsRegistry& live) {
  // Each instrument is compared as MetricsRegistry::to_json renders it:
  // a counter's value, a gauge's value and max, a histogram's count,
  // sum, min, max and non-zero buckets.
  const JsonValue sides[] = {replayed.to_json(), live.to_json()};
  std::vector<std::string> out;
  for (const char* kind : {"counters", "gauges", "histograms"}) {
    std::set<std::string> names;
    for (const JsonValue& side : sides) {
      for (const auto& [name, value] : side.at(kind).as_object()) {
        if (name.starts_with("dv.") && !name.starts_with("dv.storage.")) {
          names.insert(name);
        }
      }
    }
    for (const std::string& name : names) {
      const JsonValue* r = sides[0].at(kind).find(name);
      const JsonValue* l = sides[1].at(kind).find(name);
      if (r == nullptr || l == nullptr) {
        out.push_back(name + ": missing from the " +
                      (r == nullptr ? "replay" : "live registry"));
      } else if (r->dump() != l->dump()) {
        out.push_back(name + ": replay " + r->dump() + ", live " + l->dump());
      }
    }
  }
  return out;
}

JsonValue trace_to_json(const obs::TraceMeta& meta,
                        const obs::TraceSink& sink) {
  JsonValue meta_json = JsonValue::object();
  meta_json.reserve(8);
  meta_json.set("schema_version", JsonValue(kTraceSchemaVersion));
  meta_json.set("protocol", JsonValue(meta.protocol));
  meta_json.set("n", JsonValue(static_cast<std::uint64_t>(meta.n)));
  meta_json.set("min_quorum",
                JsonValue(static_cast<std::uint64_t>(meta.min_quorum)));
  meta_json.set("seed", JsonValue(meta.seed));
  meta_json.set("core", obs::process_set_to_json(meta.core));
  meta_json.set("ambiguity_bound",
                JsonValue(static_cast<std::uint64_t>(meta.ambiguity_bound)));
  // Sharded-fleet shape; omitted when zero so single-group traces (the
  // overwhelmingly common case) serialize byte-identically to before.
  if (meta.num_groups != 0) {
    meta_json.set("num_groups",
                  JsonValue(static_cast<std::uint64_t>(meta.num_groups)));
    meta_json.set("group_size",
                  JsonValue(static_cast<std::uint64_t>(meta.group_size)));
  }
  meta_json.set("overwritten", JsonValue(sink.overwritten()));

  JsonValue events = JsonValue::array();
  events.reserve(sink.events().size());
  for (const obs::TraceEvent& event : sink.events()) {
    events.push_back(obs::to_json(event));
  }

  JsonValue out = JsonValue::object();
  out.set("meta", std::move(meta_json));
  out.set("events", std::move(events));
  return out;
}

TraceMetaAndEvents load_trace_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  TraceMetaAndEvents out;

  const JsonValue& meta = doc.at("meta");
  if (meta.find("schema_version") == nullptr ||
      meta.at("schema_version").as_int() != kTraceSchemaVersion) {
    throw JsonError("trace: unsupported schema version (need " +
                    std::to_string(kTraceSchemaVersion) + ")");
  }
  out.meta.protocol = meta.at("protocol").as_string();
  out.meta.n = static_cast<std::uint32_t>(meta.at("n").as_uint());
  out.meta.min_quorum = static_cast<std::size_t>(meta.at("min_quorum").as_uint());
  out.meta.seed = meta.at("seed").as_uint();
  out.meta.core = obs::process_set_from_json(meta.at("core"));
  out.meta.ambiguity_bound =
      static_cast<std::size_t>(meta.at("ambiguity_bound").as_uint());
  if (const JsonValue* ow = meta.find("overwritten")) {
    out.meta.overwritten = ow->as_uint();
  }
  if (const JsonValue* groups = meta.find("num_groups")) {
    out.meta.num_groups = static_cast<std::uint32_t>(groups->as_uint());
    out.meta.group_size =
        static_cast<std::uint32_t>(meta.at("group_size").as_uint());
  }

  const JsonValue::Array& events = doc.at("events").as_array();
  out.events.reserve(events.size());
  for (const JsonValue& e : events) {
    out.events.push_back(obs::trace_event_from_json(e));
  }
  return out;
}

TraceMetaAndEvents filter_trace_group(const TraceMetaAndEvents& trace,
                                      std::uint32_t group) {
  ensure(trace.meta.group_size != 0,
         "filter_trace_group: trace has no fleet shape "
         "(meta.num_groups/group_size)");
  ensure(group < trace.meta.num_groups,
         "filter_trace_group: group out of range");
  const std::uint32_t first = group * trace.meta.group_size;
  const std::uint32_t last = first + trace.meta.group_size;  // exclusive
  const auto in_group = [&](std::uint32_t pid) {
    return pid >= first && pid < last;
  };

  TraceMetaAndEvents out;
  out.meta = trace.meta;
  out.meta.n = trace.meta.group_size;
  ProcessSet core;
  for (const ProcessId p : trace.meta.core) {
    if (in_group(p.value())) core.insert(p);
  }
  out.meta.core = std::move(core);

  for (const obs::TraceEvent& event : trace.events) {
    if (event.kind == obs::TraceEventKind::kTopologyChange) {
      // Global events carry no acting process; the component's first
      // member identifies the group (components never span groups).
      if (event.members.empty() || !in_group((*event.members.begin()).value())) {
        continue;
      }
    } else if (!in_group(event.a.value())) {
      continue;
    }
    out.events.push_back(event);
  }
  return out;
}

}  // namespace dynvote
