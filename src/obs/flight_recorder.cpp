#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "util/ensure.hpp"

namespace dynvote::obs {

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options) {
  ensure(options_.num_groups > 0 && options_.group_size > 0,
         "FlightRecorder: need a positive fleet shape");
  rings_.assign(options_.num_groups,
                Ring<TraceEvent>(kFlightRecorderCapacity));
}

void FlightRecorder::note(const TraceEvent& event) {
  std::uint32_t pid = 0;
  switch (event.kind) {
    case TraceEventKind::kMessageSend:
    case TraceEventKind::kMessageDrop:
    case TraceEventKind::kMessageDeliver:
      return;  // per-message events are exactly what we cannot afford
    case TraceEventKind::kTopologyChange:
      // Global event with no acting process; components never span
      // groups, so the first member identifies the group.
      if (event.members.empty()) return;
      pid = (*event.members.begin()).value();
      break;
    default:
      pid = event.a.value();
      break;
  }
  std::uint32_t group = pid / options_.group_size;
  if (group >= options_.num_groups) group = options_.num_groups - 1;
  rings_[group].push(event);
}

const Ring<TraceEvent>& FlightRecorder::group_events(
    std::uint32_t group) const {
  ensure(group < rings_.size(), "FlightRecorder: group out of range");
  return rings_[group];
}

JsonValue FlightRecorder::postmortem_json(std::uint32_t group,
                                          std::string_view reason,
                                          SimTime now) const {
  const Ring<TraceEvent>& ring_events = group_events(group);
  const std::vector<TraceEvent> ring(ring_events.begin(), ring_events.end());

  JsonValue out = JsonValue::object();
  out.set("schema_version", JsonValue(kPostmortemSchemaVersion));
  out.set("group", JsonValue(std::uint64_t{group}));
  out.set("reason", JsonValue(std::string(reason)));
  out.set("time", JsonValue(now));
  out.set("dropped", JsonValue(ring_events.overwritten()));

  JsonValue events = JsonValue::array();
  events.reserve(ring.size());
  for (const TraceEvent& event : ring) events.push_back(to_json(event));
  out.set("events", std::move(events));

  // Causal chains for the events a post-mortem reader asks about first:
  // the most recent event, the last formation, and the last abort.
  std::vector<std::uint64_t> anchors;
  const auto add_last = [&](auto&& predicate) {
    for (auto it = ring.rbegin(); it != ring.rend(); ++it) {
      if (!predicate(*it)) continue;
      if (std::find(anchors.begin(), anchors.end(), it->eid) ==
          anchors.end()) {
        anchors.push_back(it->eid);
      }
      return;
    }
  };
  add_last([](const TraceEvent&) { return true; });
  add_last([](const TraceEvent& e) {
    return e.kind == TraceEventKind::kSessionFormed;
  });
  add_last([](const TraceEvent& e) {
    return e.kind == TraceEventKind::kSessionAbort;
  });

  JsonValue chains = JsonValue::array();
  for (const std::uint64_t anchor : anchors) {
    // A cause pointing outside the ring (evicted, or recorded before the
    // recorder attached) truncates the chain.
    const std::vector<const TraceEvent*> chain = causal_chain(ring, anchor);
    JsonValue eids = JsonValue::array();
    eids.reserve(chain.size());
    for (const TraceEvent* event : chain) eids.push_back(JsonValue(event->eid));
    JsonValue entry = JsonValue::object();
    entry.set("for", JsonValue(anchor));
    entry.set("eids", std::move(eids));
    entry.set("truncated",
              JsonValue(!chain.empty() && chain.front()->cause != 0));
    chains.push_back(std::move(entry));
  }
  out.set("chains", std::move(chains));
  return out;
}

}  // namespace dynvote::obs
