#include "harness/availability.hpp"

#include <algorithm>

#include "harness/sweep.hpp"
#include "util/ensure.hpp"

namespace dynvote {

void enqueue_schedule(Cluster& cluster,
                      const std::vector<ScheduleEvent>& schedule) {
  for (const ScheduleEvent& event : schedule) {
    cluster.sim().queue().schedule_at(
        event.time, [&cluster, &event] { apply_event(cluster, event); });
  }
}

AvailabilityResult run_schedule(ProtocolKind kind,
                                const std::vector<ScheduleEvent>& schedule,
                                ClusterOptions base) {
  base.kind = kind;
  Cluster cluster(std::move(base));
  sim::Simulator& sim = cluster.sim();

  enqueue_schedule(cluster, schedule);
  cluster.merge();  // initial connectivity at t=0
  cluster.settle();

  const SimTime horizon = sim.now();
  const ConsistencyChecker& checker = cluster.checker();
  const MetricsObserver& observer = cluster.observer();

  AvailabilityResult result;
  result.kind = kind;
  result.availability =
      horizon == 0 ? 0.0
                   : static_cast<double>(checker.primary_uptime(horizon)) /
                         static_cast<double>(horizon);
  result.formed_sessions = checker.formed_session_count();
  result.rejected_sessions = observer.rejected();
  result.blocked_sessions = observer.blocked();
  result.violations = checker.check_basic().size();
  result.mean_rounds = observer.rounds().mean();
  result.messages_sent = sim.network().stats().messages_sent;
  result.bytes_sent = sim.network().stats().bytes_sent;
  result.max_ambiguous = checker.max_ambiguous();
  return result;
}

std::vector<AvailabilityResult> compare_protocols(
    const std::vector<ProtocolKind>& kinds, const ClusterOptions& base,
    ScheduleOptions schedule_options, int count, std::size_t threads) {
  ensure(count >= 1, "need at least one schedule");
  const ProcessSet processes =
      base.config.core.empty() ? ProcessSet::range(base.n) : base.config.core;

  // Every (kind, seed) cell is an independent simulation; fan the grid
  // out over the sweep pool and reduce the index-ordered slots below.
  // The reduction runs kind-major in ascending seed order — the exact
  // association of the old serial loop — so the averages are
  // bit-identical at any thread count.
  const std::size_t runs =
      kinds.size() * static_cast<std::size_t>(count);
  const std::vector<AvailabilityResult> cells =
      sweep_map<AvailabilityResult>(runs, threads, [&](std::size_t idx) {
        const ProtocolKind kind = kinds[idx / static_cast<std::size_t>(count)];
        ScheduleOptions opts = schedule_options;
        opts.seed = schedule_options.seed +
                    static_cast<std::uint64_t>(idx % static_cast<std::size_t>(count));
        const auto schedule = generate_schedule(processes, opts);
        return run_schedule(kind, schedule, base);
      });

  std::vector<AvailabilityResult> totals;
  totals.reserve(kinds.size());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    AvailabilityResult sum;
    sum.kind = kinds[k];
    for (int i = 0; i < count; ++i) {
      const AvailabilityResult& one =
          cells[k * static_cast<std::size_t>(count) + static_cast<std::size_t>(i)];
      sum.availability += one.availability;
      sum.formed_sessions += one.formed_sessions;
      sum.rejected_sessions += one.rejected_sessions;
      sum.blocked_sessions += one.blocked_sessions;
      sum.violations += one.violations;
      sum.mean_rounds += one.mean_rounds;
      sum.messages_sent += one.messages_sent;
      sum.bytes_sent += one.bytes_sent;
      sum.max_ambiguous = std::max(sum.max_ambiguous, one.max_ambiguous);
    }
    sum.availability /= count;
    sum.mean_rounds /= count;
    totals.push_back(sum);
  }
  return totals;
}

}  // namespace dynvote
