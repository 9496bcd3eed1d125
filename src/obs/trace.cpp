#include "obs/trace.hpp"

#include <algorithm>
#include <map>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/ensure.hpp"

namespace dynvote::obs {

std::string_view to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kMessageSend:
      return "send";
    case TraceEventKind::kMessageDrop:
      return "drop";
    case TraceEventKind::kMessageDeliver:
      return "deliver";
    case TraceEventKind::kTopologyChange:
      return "topology";
    case TraceEventKind::kProcessCrash:
      return "crash";
    case TraceEventKind::kProcessRecover:
      return "recover";
    case TraceEventKind::kViewInstalled:
      return "view";
    case TraceEventKind::kSessionAttempt:
      return "attempt";
    case TraceEventKind::kSessionFormed:
      return "formed";
    case TraceEventKind::kSessionAbort:
      return "abort";
    case TraceEventKind::kPrimaryLost:
      return "primary_lost";
    case TraceEventKind::kAmbiguityRecord:
      return "ambiguity";
    case TraceEventKind::kAmbiguityResolved:
      return "ambiguity_resolved";
    case TraceEventKind::kAmbiguityAdopted:
      return "ambiguity_adopted";
  }
  return "unknown";
}

std::string_view to_string(DropCause cause) {
  switch (cause) {
    case DropCause::kFilter:
      return "filter";
    case DropCause::kDisconnected:
      return "disconnected";
    case DropCause::kLinkEpoch:
      return "link_epoch";
  }
  return "unknown";
}

TraceEventKind trace_event_kind_from_string(std::string_view s) {
  using K = TraceEventKind;
  for (const K k :
       {K::kMessageSend, K::kMessageDrop, K::kMessageDeliver,
        K::kTopologyChange, K::kProcessCrash, K::kProcessRecover,
        K::kViewInstalled, K::kSessionAttempt, K::kSessionFormed,
        K::kSessionAbort, K::kPrimaryLost, K::kAmbiguityRecord,
        K::kAmbiguityResolved, K::kAmbiguityAdopted}) {
    if (to_string(k) == s) return k;
  }
  throw JsonError("trace: unknown event kind '" + std::string(s) + "'");
}

JsonValue process_set_to_json(const ProcessSet& set) {
  JsonValue arr = JsonValue::array();
  arr.reserve(set.size());
  for (const ProcessId p : set) {
    arr.push_back(JsonValue(static_cast<std::uint64_t>(p.value())));
  }
  return arr;
}

namespace {

/// A process id field; an id outside [0, kProcessIdLimit) makes the
/// record malformed rather than wrapping to some other process.
ProcessId process_id_from_json(const JsonValue& value) {
  const std::uint64_t raw = value.as_uint();
  if (raw >= kProcessIdLimit) {
    throw JsonError("trace: process id " + std::to_string(raw) +
                    " is not below 2^20");
  }
  return ProcessId(static_cast<std::uint32_t>(raw));
}

}  // namespace

ProcessSet process_set_from_json(const JsonValue& value) {
  ProcessSet members;
  for (const JsonValue& entry : value.as_array()) {
    members.insert(process_id_from_json(entry));
  }
  return members;
}

JsonValue to_json(const TraceEvent& event) {
  JsonValue e = JsonValue::object();
  e.reserve(10);  // t k a e + up to 7 optional fields, most absent
  e.set("t", JsonValue(event.time));
  e.set("k", JsonValue(to_string(event.kind)));
  e.set("a", JsonValue(static_cast<std::uint64_t>(event.a.value())));
  // Zero-valued fields are omitted: they are the defaults the loader
  // restores, and dropping them keeps big traces compact.
  if (event.b != ProcessId{}) {
    e.set("b", JsonValue(static_cast<std::uint64_t>(event.b.value())));
  }
  if (event.number != 0) e.set("n", JsonValue(event.number));
  if (event.value != 0) e.set("v", JsonValue(event.value));
  if (!event.members.empty()) e.set("m", process_set_to_json(event.members));
  if (!event.detail.empty()) e.set("d", JsonValue(event.detail));
  // Causal fields. "e" is always present (every recorded event has an
  // id); the clock and cause keep the zero-omitted convention.
  e.set("e", JsonValue(event.eid));
  if (event.lamport != 0) e.set("l", JsonValue(event.lamport));
  if (event.cause != 0) e.set("c", JsonValue(event.cause));
  return e;
}

TraceEvent trace_event_from_json(const JsonValue& value) {
  TraceEvent event;
  // One pass over the object instead of a find() per field: every key
  // is a single character, and a big trace has thousands of events.
  bool has_t = false, has_k = false, has_a = false, has_e = false;
  for (const auto& [key, field] : value.as_object()) {
    if (key.size() != 1) continue;
    switch (key[0]) {
      case 't': event.time = field.as_uint(); has_t = true; break;
      case 'k':
        event.kind = trace_event_kind_from_string(field.as_string());
        has_k = true;
        break;
      case 'a':
        event.a = process_id_from_json(field);
        has_a = true;
        break;
      case 'b': event.b = process_id_from_json(field); break;
      case 'n': event.number = field.as_int(); break;
      case 'v': event.value = field.as_uint(); break;
      case 'm': event.members = process_set_from_json(field); break;
      case 'd': event.detail = field.as_string(); break;
      case 'e': event.eid = field.as_uint(); has_e = true; break;
      case 'l': event.lamport = field.as_uint(); break;
      case 'c': event.cause = field.as_uint(); break;
      default: break;
    }
  }
  if (!has_t || !has_k || !has_a || !has_e) {
    throw JsonError("trace: event record is missing t, k, a, or e");
  }
  return event;
}

std::string describe(const TraceEvent& e) {
  std::string out = "[" + std::to_string(e.time) + "us] #" +
                    std::to_string(e.eid) + " " +
                    std::string(to_string(e.kind)) + " p" +
                    std::to_string(e.a.value());
  switch (e.kind) {
    case TraceEventKind::kMessageSend:
    case TraceEventKind::kMessageDeliver:
    case TraceEventKind::kMessageDrop:
      out += "->p" + std::to_string(e.b.value());
      if (e.kind == TraceEventKind::kMessageDrop) {
        out += " (" +
               std::string(to_string(static_cast<DropCause>(e.value))) + ")";
      }
      if (!e.detail.empty()) out += " " + e.detail;
      break;
    case TraceEventKind::kTopologyChange:
      out = "[" + std::to_string(e.time) + "us] #" + std::to_string(e.eid) +
            " topology " + e.members.to_string();
      break;
    case TraceEventKind::kViewInstalled:
      out += " view " + std::to_string(e.number) + " " + e.members.to_string();
      break;
    case TraceEventKind::kSessionAttempt:
    case TraceEventKind::kSessionFormed:
    case TraceEventKind::kAmbiguityResolved:
    case TraceEventKind::kAmbiguityAdopted:
      out += " session " + std::to_string(e.number) + " " +
             e.members.to_string();
      if (e.kind == TraceEventKind::kSessionFormed) {
        out += " after " + std::to_string(e.value) + " rounds";
      }
      if (!e.detail.empty()) out += " [" + e.detail + "]";
      break;
    case TraceEventKind::kSessionAbort:
      out += " view " + std::to_string(e.number) + " " + e.members.to_string() +
             ": " + e.detail;
      break;
    case TraceEventKind::kAmbiguityRecord:
      out += " level=" + std::to_string(e.value);
      break;
    default:
      break;
  }
  if (e.lamport != 0) out += " (L=" + std::to_string(e.lamport) + ")";
  if (e.cause != 0) out += " <- #" + std::to_string(e.cause);
  return out;
}

std::vector<const TraceEvent*> causal_chain(
    const std::vector<TraceEvent>& events, std::uint64_t eid) {
  std::map<std::uint64_t, const TraceEvent*> by_eid;
  for (const TraceEvent& event : events) {
    if (event.eid != 0) by_eid.emplace(event.eid, &event);
  }
  std::vector<const TraceEvent*> chain;
  std::uint64_t current = eid;
  while (current != 0 && chain.size() <= events.size()) {
    const auto it = by_eid.find(current);
    if (it == by_eid.end()) break;  // evicted by the ring bound: truncated
    chain.push_back(it->second);
    current = it->second->cause;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::uint64_t TraceSink::record(TraceEvent event) {
  switch (event.kind) {
    case TraceEventKind::kMessageSend:
    case TraceEventKind::kMessageDrop:
    case TraceEventKind::kMessageDeliver:
      if (!messages_) return 0;
      break;
    default:
      break;
  }
  event.eid = ++next_eid_;
  const TraceEvent& stored = events_.push(std::move(event));
  if (flight_ != nullptr) flight_->note(stored);
  update_gauges();
  return next_eid_;
}

void TraceSink::set_capacity(std::size_t capacity) {
  ensure(events_.empty(), "TraceSink: set the capacity before recording");
  events_ = Ring<TraceEvent>(capacity);
  update_gauges();
}

void TraceSink::bind_metrics(MetricsRegistry& registry) {
  events_gauge_ = &registry.gauge("trace.events");
  overwritten_gauge_ = &registry.gauge("trace.overwritten");
  update_gauges();
}

void TraceSink::update_gauges() {
  if (events_gauge_ == nullptr) return;
  events_gauge_->set(static_cast<std::int64_t>(events_.size()));
  overwritten_gauge_->set(static_cast<std::int64_t>(events_.overwritten()));
}

void TraceSink::clear() {
  events_.clear();
  next_eid_ = 0;
  update_gauges();
}

}  // namespace dynvote::obs
