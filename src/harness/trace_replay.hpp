// Trace replay: re-verifying correctness claims from an exported trace.
//
// The structured trace (obs/trace.hpp) records every session attempt,
// formation, abort, and ambiguous-record level. Replaying those events
// re-establishes C1 — the transitive participation order over formed
// primary components is total (paper section 2) — checks the Theorem-1
// ambiguity bound (n − Min_Quorum + 1) and rebuilds every count, gauge
// and episode of the run's metrics, without access to the live run: a
// trace.json file is sufficient evidence. The replay runs the listeners
// a live Cluster runs, one ConsistencyChecker and one MetricsObserver
// per consistency group, and hands each event to its actor's group
// through the same note() calls, so it reaches the live verdicts and
// the live registry's observer instruments.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/checker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace dynvote {

/// Version of the trace.json schema written by trace_to_json and
/// required by load_trace_json. Version 2 added the causal fields
/// (eid "e", Lamport clock "l", cause "c"), the ambiguity-resolution
/// event kinds, meta.overwritten, and renamed the meta key from
/// "version" to "schema_version".
inline constexpr int kTraceSchemaVersion = 2;

/// Verdict of a trace replay.
struct TraceCheckResult {
  /// V1..V4 violations found by the replayed ConsistencyCheckers; when
  /// meta.core spans several groups each detail starts with "group G: ".
  std::vector<Violation> violations;
  /// Formed sessions, summed over the groups.
  std::size_t formed_sessions = 0;
  /// Highest ambiguous-record level any process reported.
  std::uint64_t max_ambiguous = 0;
  /// The bound from the trace meta (0 = not applicable / not checked).
  std::size_t ambiguity_bound = 0;
  /// True iff no bound applies or max_ambiguous stayed within it.
  bool ambiguity_ok = true;
  /// True iff the sink evicted events before export (meta.overwritten > 0).
  /// It also appears in `violations`, first.
  bool truncated = false;
  /// The registry every group's replayed MetricsObserver wrote to, as the
  /// groups of a live Cluster without their own registry share one.
  obs::MetricsRegistry metrics;

  [[nodiscard]] bool consistent() const noexcept {
    return violations.empty() && ambiguity_ok;
  }
};

/// A parsed (or about-to-be-exported) trace: the run description plus the
/// event sequence.
struct TraceMetaAndEvents {
  obs::TraceMeta meta;
  std::vector<obs::TraceEvent> events;
};

/// Replays `trace` as a live Cluster observes its run: one
/// ConsistencyChecker and one MetricsObserver per group (meta.num_groups,
/// or one), each group's core its dense slice of meta.core, with F0
/// seeded unless meta.protocol is static majority; each event goes to its
/// actor's group. Evaluates the ambiguity bound in meta.ambiguity_bound.
/// A truncated trace (meta.overwritten > 0) always fails with a
/// "truncated-trace" violation: a ring-bounded sink kept only a suffix
/// of the execution, so "no violation found" is not evidence of
/// correctness. The surviving events still replay, and their verdicts
/// follow the truncation violation.
[[nodiscard]] TraceCheckResult check_trace(const TraceMetaAndEvents& trace);

/// Compares two registries on every instrument a MetricsObserver owns
/// (the "dv.*" names outside "dv.storage.*", taken from either side):
/// counters, gauges (value and max) and histograms (count, sum, min, max
/// and buckets). Returns one line per instrument that is missing on one
/// side or differs; empty means the two accounts agree exactly.
[[nodiscard]] std::vector<std::string> diff_observer_metrics(
    const obs::MetricsRegistry& replayed, const obs::MetricsRegistry& live);

/// Serializes meta + the sink's events to the deterministic trace.json
/// schema (see docs/PROTOCOL.md "Tracing & metrics").
[[nodiscard]] JsonValue trace_to_json(const obs::TraceMeta& meta,
                                      const obs::TraceSink& sink);

/// Parses a trace.json document produced by trace_to_json. Throws
/// JsonError on schema violations.
[[nodiscard]] TraceMetaAndEvents load_trace_json(std::string_view text);

/// Restricts a sharded trace (meta.group_size != 0) to one group's
/// events: process-scoped events whose actor lies in the group's dense
/// id range [group*group_size, (group+1)*group_size), plus topology
/// events whose component belongs to the group (components never span
/// groups). Causal chains survive intact — messages and sessions never
/// cross groups, so no kept event can cite a dropped one. The returned
/// meta narrows core/n to the group, so check_trace seeds only that
/// group and the span fold reads as a single-group run (dvtrace --group).
[[nodiscard]] TraceMetaAndEvents filter_trace_group(
    const TraceMetaAndEvents& trace, std::uint32_t group);

}  // namespace dynvote
