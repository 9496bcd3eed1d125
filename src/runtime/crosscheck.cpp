#include "runtime/crosscheck.hpp"

#include <algorithm>
#include <string_view>

#include "harness/cluster.hpp"
#include "runtime/fleet.hpp"
#include "util/ensure.hpp"

namespace dynvote::runtime {

namespace {

/// Kinds whose outcome is provably arrival-order independent (every
/// phase waits for all members); only these may be cross-checked.
bool deterministic_outcome(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kBasic:
    case ProtocolKind::kOptimized:
    case ProtocolKind::kThreePhaseRecovery:
      return true;
    default:
      return false;
  }
}

/// `text` cut at every `sep`; a trailing separator ends the last piece
/// rather than starting an empty one.
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> pieces;
  while (!text.empty()) {
    const std::size_t end = std::min(text.find(sep), text.size());
    pieces.push_back(text.substr(0, end));
    text.remove_prefix(std::min(end + 1, text.size()));
  }
  return pieces;
}

}  // namespace

std::string TranscriptDiff::to_string() const {
  const auto quoted = [](const std::string& entry) {
    return entry.empty() ? std::string("none") : "`" + entry + "`";
  };
  return process + " entry " + std::to_string(entry) + ": DES " +
         quoted(des) + ", pool " + quoted(pool);
}

std::optional<TranscriptDiff> diff_transcripts(const std::string& des,
                                               const std::string& pool) {
  const std::vector<std::string_view> des_lines = split(des, '\n');
  const std::vector<std::string_view> pool_lines = split(pool, '\n');
  const auto entries = [](const std::vector<std::string_view>& lines,
                          std::size_t i) {
    return i < lines.size() ? split(lines[i], ' ')
                            : std::vector<std::string_view>{};
  };
  for (std::size_t i = 0; i < std::max(des_lines.size(), pool_lines.size());
       ++i) {
    const std::vector<std::string_view> a = entries(des_lines, i);
    const std::vector<std::string_view> b = entries(pool_lines, i);
    for (std::size_t k = 0; k < std::max(a.size(), b.size()); ++k) {
      const std::string_view x = k < a.size() ? a[k] : std::string_view{};
      const std::string_view y = k < b.size() ? b[k] : std::string_view{};
      if (x == y) continue;
      std::string_view label = a.empty() ? b.front() : a.front();
      if (label.ends_with(':')) label.remove_suffix(1);
      return TranscriptDiff{std::string(label), k, std::string(x),
                            std::string(y)};
    }
  }
  return std::nullopt;
}

namespace {

/// One wall-clock execution of the script; returns its transcript and
/// folds its per-step C1 checks into `c1_clean`.
std::string run_fleet(FleetOptions options,
                      const std::vector<ScheduleEvent>& script,
                      bool& c1_clean) {
  RuntimeFleet fleet(std::move(options));
  fleet.start();
  c1_clean &= RuntimeFleet::distinct_primaries(fleet.probe()) <= 1;
  for (const ScheduleEvent& event : script) {
    apply_event(fleet, event);
    c1_clean &= RuntimeFleet::distinct_primaries(fleet.probe()) <= 1;
  }
  fleet.stop();
  return fleet.outcome_summary();
}

}  // namespace

std::string des_summary(ProtocolKind kind, std::uint32_t n, std::uint64_t seed,
                        const std::vector<ScheduleEvent>& script,
                        bool& c1_clean) {
  ClusterOptions options;
  options.kind = kind;
  options.n = n;
  options.sim.seed = seed;
  Cluster cluster(options);
  cluster.start();
  // C1 at each quiescent point: the predicate
  // RuntimeFleet::distinct_primaries applies to a probe snapshot.
  c1_clean &= cluster.live_primaries().size() <= 1;
  for (const ScheduleEvent& event : script) {
    apply_event(cluster, event);
    cluster.settle();
    c1_clean &= cluster.live_primaries().size() <= 1;
  }
  // The simulator records every process into one sink;
  // append_outcome_line keeps each process's own events, in order.
  std::string out;
  for (ProcessId p : cluster.all_processes()) {
    append_outcome_line(out, p, cluster.sim().trace().events(),
                        cluster.protocol(p));
  }
  return out;
}

CrossCheckResult run_scenario(ProtocolKind kind, std::uint32_t n,
                              std::uint64_t seed, std::size_t steps,
                              bool probes,
                              const std::vector<std::uint32_t>& pool_workers) {
  if (!deterministic_outcome(kind)) {
    invariant_failed(std::string("cross-check does not cover protocol kind ") +
                     dynvote::to_string(kind));
  }
  // The first `steps` events of the seed's schedule over all n ids. Each
  // settles before the next, so only their order counts: a one-tick
  // mean gap over 64 ticks a step leaves far more events than `steps`.
  ScheduleOptions schedule;
  schedule.duration = 64 * (steps + 1);
  schedule.mean_event_gap = 1;
  schedule.seed = seed;
  std::vector<ScheduleEvent> script =
      generate_schedule(ProcessSet::range(n), schedule);
  ensure(script.size() >= steps, "run_scenario: schedule too short");
  script.resize(steps);

  CrossCheckResult result;
  result.seed = seed;
  result.c1_clean = true;
  result.sim_summary = des_summary(kind, n, seed, script, result.c1_clean);
  result.sim_digest = fnv1a64(result.sim_summary);

  // Pool runs, same script, once per worker count: the M:N scheduler
  // must reproduce the exact transcript at ANY W. W = n, one process per
  // worker thread, always runs.
  std::vector<std::uint32_t> worker_counts = pool_workers;
  if (std::find(worker_counts.begin(), worker_counts.end(), n) ==
      worker_counts.end()) {
    worker_counts.push_back(n);
  }
  bool all_equal = true;
  for (const std::uint32_t workers : worker_counts) {
    FleetOptions options;
    options.kind = kind;
    options.n = n;
    options.runtime.probes = probes;
    options.workers = workers;
    const std::string summary = run_fleet(std::move(options), script,
                                          result.c1_clean);
    const std::uint64_t digest = fnv1a64(summary);
    result.pool.push_back(PoolCheck{workers, digest});
    if (summary != result.sim_summary || digest != result.sim_digest) {
      all_equal = false;
      if (result.pool_divergent_summary.empty()) {
        result.pool_divergent_summary = summary;
        result.divergent_workers = workers;
        result.divergence = diff_transcripts(result.sim_summary, summary);
      }
    }
  }

  result.digests_equal = all_equal;
  return result;
}

}  // namespace dynvote::runtime
