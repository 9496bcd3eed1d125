// Machine-readable bench results.
//
// Every bench (bench/bench_*.cpp) keeps printing its human-readable
// tables, and additionally emits one JSON result block through this
// helper so tools/run_experiments.sh can record the perf trajectory:
//
//   --- BENCH_RESULT_JSON <name> ---
//   { ... }
//   --- END_BENCH_RESULT_JSON ---
//
// The block is written to stdout (between unambiguous markers, so text
// output stays greppable) and, when the DYNVOTE_JSON_DIR environment
// variable names a directory, to <dir>/BENCH_<name>.json as well.
// Payloads are built from deterministic inputs (seeded simulations), so
// reruns produce byte-identical blocks.
#pragma once

#include <algorithm>
#include <string>

#include "util/json.hpp"

namespace dynvote {

/// Marker line prefix that opens a result block on stdout.
inline constexpr const char* kBenchResultBegin = "--- BENCH_RESULT_JSON ";
/// Marker line that closes a result block on stdout.
inline constexpr const char* kBenchResultEnd = "--- END_BENCH_RESULT_JSON ---";

/// Version stamped into every BENCH_RESULT_JSON block (the
/// "schema_version" key emit_bench_result prepends). Bump on any
/// incompatible change to a bench's payload shape so trajectory tooling
/// can refuse mixed files instead of misreading them.
inline constexpr int kBenchResultSchemaVersion = 1;

/// Emits the block for `name` (e.g. "bench_availability") with `result`
/// as payload, prepending "schema_version". Returns the path written, or
/// an empty string when DYNVOTE_JSON_DIR is unset or the file could not
/// be written.
std::string emit_bench_result(const std::string& name,
                              const JsonValue& result);

/// Writes `value` to <DYNVOTE_JSON_DIR>/<filename> (e.g. "trace.json").
/// Returns the path written, or an empty string when DYNVOTE_JSON_DIR is
/// unset or the file could not be written.
std::string write_json_file(const std::string& filename,
                            const JsonValue& value);

/// Process CPU time in milliseconds, all threads. Wall clocks on shared
/// hosts jitter by +/-10% on short cells; CPU time strips the scheduler
/// out and leaves frequency drift, and a parked thread accrues nothing,
/// so it measures the work, not the waiting.
[[nodiscard]] double process_cpu_ms();

/// What paired_overhead found.
struct PairedOverhead {
  /// max(0, MIN over the timed pairs of instrumented / plain CPU - 1).
  double frac = 0;
  /// Both runs of every pair, the warm-up pair included, returned equal
  /// outcomes: the instrument changed nothing the caller compares.
  bool outcomes_equal = true;
};

/// The CPU cost of an instrument (probe rings, fleet telemetry): `reps`
/// adjacent pairs of one cell, `run(false)` without the instrument and
/// `run(true)` with it, each returning an outcome (a digest) that must
/// compare equal within every pair.
///
/// The estimator is the MINIMUM over per-pair ratios, floored at 0.
/// Rationale: shared-runner noise here comes in multi-second episodes
/// (frequency scaling, cache contention) that inflate CPU time of
/// identical work by 5-10%, which no per-mode best-of-N can see
/// through — but a real regression shifts EVERY pair by the
/// regression, while a noise episode must land on all N pairs at once
/// to fake one. The cleanest pair is therefore the honest reading: a
/// true 2x cost still fails a 5% budget by an order of magnitude, and
/// a ~1-2% true overhead passes regardless of episodes. Adjacent
/// pairing (not pooled minima) keeps both sides of each ratio inside
/// the same noise epoch; alternating which mode runs first cancels
/// intra-pair drift across pairs.
template <typename Run>
PairedOverhead paired_overhead(int reps, Run&& run) {
  PairedOverhead out;
  // Untimed warm-up pair: the very first cell runs on a pristine heap
  // no later cell sees again, and letting it into a ratio biases that
  // pair by a few percent.
  const auto warm_plain = run(false);
  out.outcomes_equal = run(true) == warm_plain;
  double best_ratio = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const bool plain_first = rep % 2 == 0;
    const double t0 = process_cpu_ms();
    const auto first = run(!plain_first);
    const double t1 = process_cpu_ms();
    const auto second = run(plain_first);
    const double t2 = process_cpu_ms();
    const double ms_plain = plain_first ? t1 - t0 : t2 - t1;
    const double ms_on = plain_first ? t2 - t1 : t1 - t0;
    const double ratio = ms_plain > 0 ? ms_on / ms_plain : 1.0;
    if (rep == 0 || ratio < best_ratio) best_ratio = ratio;
    out.outcomes_equal &= first == second;
  }
  out.frac = std::max(0.0, best_ratio - 1.0);
  return out;
}

}  // namespace dynvote
