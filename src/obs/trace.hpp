// Structured, deterministic event tracing with causal links.
//
// The TraceSink is the one record of protocol events. It keeps flat
// TraceEvent structs — message send/drop/deliver with cause, session
// attempt/form/abort with the eligibility verdict, topology changes,
// crashes and recoveries, ambiguous-record high-water marks, and the
// optimized protocol's ambiguity resolutions/adoptions. The harness
// replays these events through the consistency checker
// (harness/trace_replay.hpp) to re-verify C1 and the Theorem-1 ambiguity
// bound from an exported trace alone, obs/spans.hpp folds the stream
// into causal spans (session lifecycles, ambiguity lifetimes, primary
// tenures), and describe() renders each event as one narrative line.
//
// Causality: the sink assigns every recorded event a monotonically
// increasing event id (eid, starting at 1), producers stamp each event
// with the recording process's Lamport clock (carried across messages by
// sim::Network), and `cause` links an effect to the eid of the event
// that produced it — a delivery to its send, a session form/abort to its
// attempt, a view install to the topology change that triggered it.
// Walking `cause` links back to an event with cause 0 yields the root
// cause of any effect (see dvtrace explain-abort).
//
// Determinism guarantee: events are recorded synchronously from the
// single-threaded simulator, ordered by the event queue; two runs with
// the same RNG seed record identical sequences (ids, clocks and causal
// links included), and the JSON export is byte-identical (see
// util/json.hpp).
//
// Memory: the sink is ring-buffered. Protocol/topology events are always
// recorded; per-message events are opt-in (set_messages_enabled) because
// long availability sweeps exchange millions of messages. Eviction never
// reuses ids, so causal links stay unambiguous (they may dangle — a
// chain walk reports the truncation instead of resolving wrongly).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ring.hpp"
#include "util/ids.hpp"
#include "util/json.hpp"
#include "util/process_set.hpp"

namespace dynvote::obs {

class FlightRecorder;
class Gauge;
class MetricsRegistry;

enum class TraceEventKind : std::uint8_t {
  kMessageSend,        // a = from, b = to, detail = payload type
  kMessageDrop,        // a = from, b = to, value = DropCause, detail = type
  kMessageDeliver,     // a = from, b = to, detail = payload type
  kTopologyChange,     // members = one component (one event per component)
  kProcessCrash,       // a = process
  kProcessRecover,     // a = process
  kViewInstalled,      // a = process, number = view id, members = view
  kSessionAttempt,     // a = process, number = session, members = attempt set
  kSessionFormed,      // a = process, number = session, members, value = rounds
  kSessionAbort,       // a = process, number = view id, members, detail = reason
  kPrimaryLost,        // a = process
  kAmbiguityRecord,    // a = process, value = #ambiguous sessions now recorded
  kAmbiguityResolved,  // a = process, number = session, members,
                       //   detail = the §5 rule that deleted the record
  kAmbiguityAdopted,   // a = process, number = session, members,
                       //   detail = the §5 rule that adopted the record
};

/// Why a message never reached its destination.
enum class DropCause : std::uint8_t {
  kFilter = 0,        // fault-injection drop filter at send time
  kDisconnected = 1,  // sender and receiver not connected at send time
  kLinkEpoch = 2,     // link was cut (or endpoint crashed) while in flight
};

[[nodiscard]] std::string_view to_string(TraceEventKind kind);
[[nodiscard]] std::string_view to_string(DropCause cause);

/// Inverse of to_string(TraceEventKind); throws JsonError on unknown
/// names (the parse-side failure mode of the trace schema).
[[nodiscard]] TraceEventKind trace_event_kind_from_string(std::string_view s);

/// One flat trace record. Field meaning depends on `kind` (see the enum
/// comments); unused fields keep their zero defaults and are omitted from
/// the JSON export.
struct TraceEvent {
  SimTime time = 0;
  TraceEventKind kind = TraceEventKind::kMessageSend;
  ProcessId a;
  ProcessId b;
  std::int64_t number = 0;
  std::uint64_t value = 0;
  ProcessSet members;
  std::string detail;
  /// Event id, assigned by TraceSink::record (1-based; 0 = unrecorded).
  std::uint64_t eid = 0;
  /// Lamport clock of the acting process at the event (0 for global
  /// events such as topology changes, which no single process performs).
  std::uint64_t lamport = 0;
  /// eid of the event that caused this one (0 = root cause / unlinked).
  std::uint64_t cause = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// One event in the compact trace.json schema: single-letter keys
/// (t, k, a, b, n, v, m, d, e, l, c), zero-valued fields omitted. Both
/// the trace exporters (harness/trace_replay) and flight-recorder
/// post-mortems serialize events through here, so every consumer parses
/// one format.
[[nodiscard]] JsonValue to_json(const TraceEvent& event);

/// Inverse of to_json(TraceEvent). Throws JsonError when a required
/// field (t, k, a, e) is missing or a process id is >= kProcessIdLimit.
[[nodiscard]] TraceEvent trace_event_from_json(const JsonValue& value);

/// A process set as a JSON array of ids in ascending order — the `m`
/// field above, trace.json's `core` and the spans export's members.
[[nodiscard]] JsonValue process_set_to_json(const ProcessSet& set);

/// Inverse of process_set_to_json; throws JsonError on an id >=
/// kProcessIdLimit.
[[nodiscard]] ProcessSet process_set_from_json(const JsonValue& value);

/// One narrative line, e.g. "[120us] #7 formed p0 session 1 {p0,p1,p2}
/// after 2 rounds (L=9) <- #5": what `dvtrace timeline`, the examples
/// and scenario_cli's `trace` command print.
[[nodiscard]] std::string describe(const TraceEvent& e);

/// Walks `cause` links from the event with id `eid` back to a root.
/// Returns the chain ordered root-first (the queried event is last), or
/// an empty vector when `eid` is not in `events`. If the first entry
/// still has a nonzero cause, the chain is truncated: the cause was
/// evicted by the ring bound. dvtrace explain-abort and flight-recorder
/// post-mortems walk every chain through here.
[[nodiscard]] std::vector<const TraceEvent*> causal_chain(
    const std::vector<TraceEvent>& events, std::uint64_t eid);

/// Run-level context exported alongside the events so a trace file is
/// self-describing: replay needs the core set, Min_Quorum, and whether
/// the Theorem-1 ambiguity bound applies to the traced protocol.
struct TraceMeta {
  std::string protocol;
  std::uint32_t n = 0;
  std::size_t min_quorum = 0;
  std::uint64_t seed = 0;
  ProcessSet core;
  /// Theorem-1 bound on simultaneously recorded ambiguous sessions
  /// (n − Min_Quorum + 1); 0 disables the check (protocols that do not
  /// garbage-collect, or runs with dynamic membership).
  std::size_t ambiguity_bound = 0;
  /// Events evicted by the sink's ring bound before export. Nonzero means
  /// the event stream is a suffix of the execution, which check_trace
  /// reports as a "truncated-trace" violation.
  std::uint64_t overwritten = 0;
  /// Sharded-fleet shape (0 = not a sharded trace). When set, replica
  /// ProcessIds are dense group-major (group = pid / group_size), which
  /// is what dvtrace's --group filter keys on. Omitted from the JSON
  /// export when zero, so single-group traces are byte-unchanged.
  std::uint32_t num_groups = 0;
  std::uint32_t group_size = 0;
};

/// The recorded TraceEvents, kept in a Ring.
class TraceSink {
 public:
  /// `capacity` 0 means unbounded.
  explicit TraceSink(std::size_t capacity = 0) : events_(capacity) {}

  /// Records `event`, assigning it the next event id. Returns the id, or
  /// 0 when the event was skipped (per-message events while disabled) —
  /// skipped events consume no id, so ids stay dense over recorded ones.
  std::uint64_t record(TraceEvent event);

  /// Per-message events (send/drop/deliver) are skipped unless enabled.
  void set_messages_enabled(bool enabled) noexcept { messages_ = enabled; }
  [[nodiscard]] bool messages_enabled() const noexcept { return messages_; }

  /// Sets the ring bound (0 = unbounded). The sink must be empty: a
  /// bound applies from the first event on, so no event is evicted
  /// after the fact.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const noexcept {
    return events_.capacity();
  }

  /// Mirrors size/overwritten into the registry's "trace.events" /
  /// "trace.overwritten" gauges, so ring-buffer pressure is visible in
  /// bench JSON without touching the sink. Call once at wiring time; the
  /// registry must outlive the sink.
  void bind_metrics(MetricsRegistry& registry);

  /// Tees every retained event into a per-group flight recorder
  /// (obs/flight_recorder.hpp) after it lands in the ring. The recorder
  /// keeps its own bounds; eviction here never touches it. Pass nullptr
  /// to detach. The recorder must outlive the sink (or be detached).
  void set_flight_recorder(FlightRecorder* recorder) noexcept {
    flight_ = recorder;
  }

  void clear();

  [[nodiscard]] const Ring<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  /// Events evicted by the ring bound since the last clear().
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return events_.overwritten();
  }
  /// Id of the most recently recorded event (0 = none yet).
  [[nodiscard]] std::uint64_t last_eid() const noexcept { return next_eid_; }

 private:
  void update_gauges();

  bool messages_ = false;
  Ring<TraceEvent> events_;
  std::uint64_t next_eid_ = 0;
  Gauge* events_gauge_ = nullptr;
  Gauge* overwritten_gauge_ = nullptr;
  FlightRecorder* flight_ = nullptr;
};

}  // namespace dynvote::obs
