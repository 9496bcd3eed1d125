#include "runtime/crosscheck.hpp"

#include <algorithm>
#include <set>
#include <string_view>

#include "harness/cluster.hpp"
#include "runtime/fleet.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"

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

/// C1 at a quiescent point of the DES: distinct primary sessions among
/// live processes (the same predicate RuntimeFleet::distinct_primaries
/// applies to a probe snapshot).
std::size_t cluster_distinct_primaries(Cluster& cluster) {
  std::set<Session> sessions;
  for (ProcessId p : cluster.all_processes()) {
    if (!cluster.sim().network().alive(p)) continue;
    const ProtocolNode& node = cluster.protocol(p);
    if (node.is_primary() && node.primary_session()) {
      sessions.insert(*node.primary_session());
    }
  }
  return sessions.size();
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

std::vector<ScheduleEvent> make_scenario(std::uint32_t n, std::uint64_t seed,
                                         std::size_t steps) {
  ensure(n >= 2, "scenario needs at least two processes");
  Rng rng(seed);
  std::vector<bool> alive(n, true);
  std::size_t alive_count = n;
  std::vector<ScheduleEvent> script;
  script.reserve(steps);

  auto pick = [&](bool want_alive) {
    std::uint32_t idx =
        static_cast<std::uint32_t>(rng.next_below(n));
    while (alive[idx] != want_alive) idx = (idx + 1) % n;
    return idx;
  };

  while (script.size() < steps) {
    ScheduleEvent event;
    switch (rng.next_below(4)) {
      case 0: {  // partition all ids into 2-3 groups
        std::vector<ProcessId> ids;
        for (std::uint32_t i = 0; i < n; ++i) ids.push_back(ProcessId(i));
        rng.shuffle(ids);
        const std::size_t k =
            std::min<std::size_t>(2 + rng.next_below(2), ids.size());
        event.kind = ScheduleEvent::Kind::kPartition;
        event.groups.resize(k);
        // Every group gets one seed member; the rest land uniformly.
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const std::size_t g = i < k ? i : rng.next_below(k);
          event.groups[g].insert(ids[i]);
        }
        break;
      }
      case 1:
        event.kind = ScheduleEvent::Kind::kMerge;
        event.groups = {ProcessSet::range(n)};
        break;
      case 2: {
        if (alive_count <= 1) continue;  // keep one process up
        event.kind = ScheduleEvent::Kind::kCrash;
        const std::uint32_t idx = pick(true);
        event.process = ProcessId(idx);
        alive[idx] = false;
        --alive_count;
        break;
      }
      case 3: {
        if (alive_count == n) continue;  // nobody to recover
        event.kind = ScheduleEvent::Kind::kRecover;
        const std::uint32_t idx = pick(false);
        event.process = ProcessId(idx);
        alive[idx] = true;
        ++alive_count;
        break;
      }
    }
    script.push_back(std::move(event));
  }
  return script;
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
  c1_clean &= cluster_distinct_primaries(cluster) <= 1;
  for (const ScheduleEvent& event : script) {
    apply_event(cluster, event);
    cluster.settle();
    c1_clean &= cluster_distinct_primaries(cluster) <= 1;
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
  const std::vector<ScheduleEvent> script = make_scenario(n, seed, steps);

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
