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
// The builder also computes derived metrics from the trace alone —
// rounds-to-form histogram, primary-availability time, time spent with
// at least one ambiguous record outstanding — which
// cross_check_with_registry compares against the live MetricsRegistry:
// the trace file and the in-process instruments must tell the same
// story, or one of them is lying.
//
// Determinism: build_spans is a pure fold over the event vector; with
// the byte-identical trace of a fixed seed, spans_to_json and
// chrome_trace_json are byte-identical too.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/ids.hpp"
#include "util/json.hpp"
#include "util/process_set.hpp"

namespace dynvote::obs {

class MetricsRegistry;

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

/// Aggregates recomputed from the trace alone. Counter and uptime
/// conventions match harness MetricsObserver exactly, so cross-checks
/// compare equals.
struct DerivedMetrics {
  std::uint64_t views_installed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t formed = 0;
  std::uint64_t aborts = 0;
  std::uint64_t primary_lost = 0;

  /// rounds -> number of formations (the kSessionFormed round counts).
  std::map<std::uint64_t, std::uint64_t> rounds_to_form;
  std::uint64_t rounds_sum = 0;
  std::uint64_t rounds_min = 0;
  std::uint64_t rounds_max = 0;

  /// Virtual time with >= 1 process primary (union over processes;
  /// intervals still open at the end of the trace are excluded, matching
  /// the registry's dv.primary_uptime_ticks counter).
  std::uint64_t primary_uptime_ticks = 0;
  /// Virtual time with >= 1 ambiguous record open anywhere. Unlike
  /// uptime, an interval still open at the end of the trace counts up to
  /// the horizon — unresolved ambiguity is the case worth measuring.
  std::uint64_t time_in_ambiguity_ticks = 0;

  /// Highest level any kAmbiguityRecord event reported.
  std::uint64_t max_ambiguity_level = 0;
  /// Highest simultaneous open-AmbiguitySpan count at a single process —
  /// the quantity Theorem 1 bounds by n - Min_Quorum + 1.
  std::uint64_t max_open_ambiguity = 0;

  /// Timestamp of the last event (0 for an empty trace).
  SimTime horizon = 0;

  /// Fraction of the horizon with a live primary component.
  [[nodiscard]] double primary_availability() const noexcept {
    return horizon == 0 ? 0.0
                        : static_cast<double>(primary_uptime_ticks) /
                              static_cast<double>(horizon);
  }
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

/// Compares the trace-derived metrics against the live registry the run
/// maintained (dv.* counters, dv.rounds_per_form, dv.primary_uptime_ticks,
/// the dv.ambiguous_recorded gauge). Returns one human-readable line per
/// mismatch; empty means the two accounts agree exactly.
[[nodiscard]] std::vector<std::string> cross_check_with_registry(
    const SpanReport& report, const MetricsRegistry& registry);

}  // namespace dynvote::obs
