// Trace replay: re-verifying correctness claims from an exported trace.
//
// The structured trace (obs/trace.hpp) records every session attempt,
// formation, abort, and ambiguous-record level. Replaying those events
// through a fresh ConsistencyChecker re-establishes C1 — the transitive
// participation order over formed primary components is total (paper
// section 2) — and checks the Theorem-1 ambiguity bound
// (n − Min_Quorum + 1) without access to the live run: a trace.json file
// is sufficient evidence. This is the "checker trace-replay mode": the
// replay hands each event to ConsistencyChecker::note, the same call a
// live Cluster makes, so it reaches the in-process checker's verdicts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/checker.hpp"
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
  /// V1..V4 violations found by the replayed ConsistencyChecker.
  std::vector<Violation> violations;
  std::size_t formed_sessions = 0;
  std::uint64_t attempts = 0;
  std::uint64_t aborts = 0;
  /// Highest ambiguous-record level any process reported.
  std::uint64_t max_ambiguous = 0;
  /// The bound from the trace meta (0 = not applicable / not checked).
  std::size_t ambiguity_bound = 0;
  /// True iff no bound applies or max_ambiguous stayed within it.
  bool ambiguity_ok = true;
  /// True iff the sink evicted events before export (meta.overwritten > 0).
  /// It also appears in `violations`, first.
  bool truncated = false;

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

/// Feeds the protocol-level events of `trace` through a fresh
/// ConsistencyChecker (seeded from meta.core) and evaluates the ambiguity
/// bound in meta.ambiguity_bound. A truncated trace (meta.overwritten
/// > 0) always fails with a "truncated-trace" violation: a ring-bounded
/// sink kept only a suffix of the execution, so "no violation found" is
/// not evidence of correctness. The surviving events still replay, and
/// their verdicts follow the truncation violation.
[[nodiscard]] TraceCheckResult check_trace(const TraceMetaAndEvents& trace);

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
/// meta narrows core/n to the group, which is what makes span folding
/// and checker replay meaningful on sharded traces (dvtrace --group).
[[nodiscard]] TraceMetaAndEvents filter_trace_group(
    const TraceMetaAndEvents& trace, std::uint32_t group);

}  // namespace dynvote
