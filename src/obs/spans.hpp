// Causal spans: folding the flat trace-event stream into lifecycles.
//
// A TraceSink records point events (obs/trace.hpp). This layer derives
// the three span families the paper's narrative is about:
//
//   SessionSpan    one per (process, installed view): view install ->
//                  attempt -> formed / aborted / crashed / superseded.
//   AmbiguitySpan  the lifetime of one ambiguous-session record at one
//                  process: recorded at the attempt, closed when the
//                  session forms, a section-5 rule resolves or adopts
//                  it, the disk is lost, or a same-membership re-attempt
//                  overwrites it (paper figure 1 step 2).
//   PrimarySpan    one primary-component tenure at one process:
//                  kSessionFormed -> kPrimaryLost.
//
// The builder also derives what only the lifecycles know: the time
// spent with at least one ambiguous record outstanding and the most
// records open at once at one process. Every count, the rounds per
// formation and the primary uptime belong to harness MetricsObserver,
// which a trace replay (harness/trace_replay.hpp) runs on the same
// events.
//
// Determinism: build_spans is a pure fold over the event vector; with
// the byte-identical trace of a fixed seed, spans_to_json and
// chrome_trace_json are byte-identical too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/ids.hpp"
#include "util/json.hpp"
#include "util/process_set.hpp"

namespace dynvote::obs {

/// One session lifecycle at one process. Opens at kViewInstalled and
/// closes at the first of: kSessionFormed, kSessionAbort, kProcessCrash,
/// or the next kViewInstalled (outcome "superseded"). Spans still open
/// when the trace ends keep outcome "open" and close_eid 0, with `end`
/// set to the trace horizon so durations stay meaningful.
struct SessionSpan {
  ProcessId process;
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t open_eid = 0;     // the kViewInstalled event
  std::uint64_t attempt_eid = 0;  // 0 = ended before attempting
  std::uint64_t close_eid = 0;    // 0 = still open at end of trace
  std::int64_t view_id = 0;
  std::int64_t number = -1;  // session number once attempted, else -1
  ProcessSet members;        // attempt set once attempted, else the view
  int rounds = 0;            // communication rounds (formed spans only)
  std::string outcome = "open";  // formed|aborted|crashed|superseded|open
  std::string reason;            // abort reason (aborted spans only)
};

/// The lifetime of one ambiguous-session record at one process.
/// `resolution` is "formed" (the session itself formed, clearing the
/// list), "overwritten" (same-membership re-attempt), "open", or the
/// rule string carried by the closing kAmbiguityResolved /
/// kAmbiguityAdopted event (see docs/OBSERVABILITY.md for the
/// vocabulary).
struct AmbiguitySpan {
  ProcessId process;
  std::int64_t number = 0;
  ProcessSet members;
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t open_eid = 0;   // the kSessionAttempt event
  std::uint64_t close_eid = 0;  // 0 = still open at end of trace
  bool adopted = false;         // closed by kAmbiguityAdopted
  std::string resolution = "open";
};

/// One primary-component tenure at one process.
struct PrimarySpan {
  ProcessId process;
  std::int64_t number = 0;
  ProcessSet members;
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t open_eid = 0;   // the kSessionFormed event
  std::uint64_t close_eid = 0;  // the kPrimaryLost event; 0 = still open
  bool open = false;            // still primary at end of trace
};

/// What the lifecycles alone tell about the run.
struct DerivedMetrics {
  /// Virtual time with >= 1 ambiguous record open anywhere: the union of
  /// the AmbiguitySpans, an interval still open at the end of the trace
  /// counted up to the horizon (unresolved ambiguity is the case worth
  /// measuring).
  std::uint64_t time_in_ambiguity_ticks = 0;
  /// Highest simultaneous open-AmbiguitySpan count at a single process —
  /// the quantity Theorem 1 bounds by n - Min_Quorum + 1.
  std::uint64_t max_open_ambiguity = 0;

  /// Timestamp of the last event (0 for an empty trace).
  SimTime horizon = 0;
};

struct SpanReport {
  std::vector<SessionSpan> sessions;
  std::vector<AmbiguitySpan> ambiguity;
  std::vector<PrimarySpan> primaries;
  DerivedMetrics derived;
};

/// Folds the event stream (in recorded order) into spans and derived
/// metrics. Pure and deterministic.
[[nodiscard]] SpanReport build_spans(const std::vector<TraceEvent>& events);

/// Deterministic JSON rendering of a SpanReport:
/// {"sessions": [...], "ambiguity": [...], "primaries": [...],
///  "derived": {...}}.
[[nodiscard]] JsonValue spans_to_json(const SpanReport& report);

/// Chrome trace-event ("Trace Event Format") JSON, loadable in
/// chrome://tracing and Perfetto: one track (tid) per process plus a
/// network track; sessions and primary tenures as complete ("X") slices,
/// ambiguity lifetimes as async ("b"/"e") pairs so overlapping records
/// stack, drops/topology/crash/recover as instants.
[[nodiscard]] JsonValue chrome_trace_json(const TraceMeta& meta,
                                          const std::vector<TraceEvent>& events,
                                          const SpanReport& report);

}  // namespace dynvote::obs
