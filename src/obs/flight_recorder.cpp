#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/ensure.hpp"

namespace dynvote::obs {

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options) {
  ensure(options_.num_groups > 0 && options_.group_size > 0,
         "FlightRecorder: need a positive fleet shape");
  ensure(options_.per_group_capacity > 0,
         "FlightRecorder: per-group ring needs capacity");
  rings_.resize(options_.num_groups);
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
  GroupRing& ring = rings_[group];
  if (ring.slots.size() < options_.per_group_capacity) {
    ring.slots.push_back(event);
    return;
  }
  // Overwrite-in-place circular buffer: once a slot has held an event,
  // assigning the next one reuses its member-set and detail-string
  // allocations. This path runs for every protocol event of a saturated
  // group, and allocation-free assignment is what keeps the recorder
  // inside the telemetry overhead budget.
  ring.slots[ring.next] = event;
  ring.next = (ring.next + 1) % ring.slots.size();
  ++ring.dropped;
}

std::vector<TraceEvent> FlightRecorder::group_events(
    std::uint32_t group) const {
  ensure(group < rings_.size(), "FlightRecorder: group out of range");
  const GroupRing& ring = rings_[group];
  std::vector<TraceEvent> out;
  out.reserve(ring.slots.size());
  for (std::size_t i = 0; i < ring.slots.size(); ++i) {
    out.push_back(ring.slots[(ring.next + i) % ring.slots.size()]);
  }
  return out;
}

std::uint64_t FlightRecorder::dropped(std::uint32_t group) const {
  ensure(group < rings_.size(), "FlightRecorder: group out of range");
  return rings_[group].dropped;
}

JsonValue FlightRecorder::postmortem_json(std::uint32_t group,
                                          std::string_view reason,
                                          SimTime now) const {
  ensure(group < rings_.size(), "FlightRecorder: group out of range");
  const std::vector<TraceEvent> ring = group_events(group);

  JsonValue out = JsonValue::object();
  out.set("schema_version", JsonValue(kPostmortemSchemaVersion));
  out.set("group", JsonValue(std::uint64_t{group}));
  out.set("reason", JsonValue(std::string(reason)));
  out.set("time", JsonValue(now));
  out.set("dropped", JsonValue(rings_[group].dropped));

  std::unordered_map<std::uint64_t, std::size_t> by_eid;
  by_eid.reserve(ring.size());
  JsonValue events = JsonValue::array();
  events.reserve(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    by_eid.emplace(ring[i].eid, i);
    events.push_back(to_json(ring[i]));
  }
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
    // Walk cause links inside the ring, then reverse to root-first. A
    // cause pointing outside the ring (evicted, or recorded before the
    // recorder attached) truncates the chain.
    std::vector<std::uint64_t> walk;
    bool truncated = false;
    std::uint64_t eid = anchor;
    while (eid != 0) {
      const auto it = by_eid.find(eid);
      if (it == by_eid.end()) {
        truncated = true;
        break;
      }
      walk.push_back(eid);
      eid = ring[it->second].cause;
    }
    JsonValue chain = JsonValue::object();
    chain.set("for", JsonValue(anchor));
    JsonValue eids = JsonValue::array();
    eids.reserve(walk.size());
    for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
      eids.push_back(JsonValue(*it));
    }
    chain.set("eids", std::move(eids));
    chain.set("truncated", JsonValue(truncated));
    chains.push_back(std::move(chain));
  }
  out.set("chains", std::move(chains));
  return out;
}

}  // namespace dynvote::obs
