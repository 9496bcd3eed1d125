// Random failure schedules for the availability experiments.
//
// A schedule is a concrete, fully materialized sequence of network events
// (partitions, merges, crashes, recoveries) at virtual times. Schedules
// are generated once from a seed and then replayed bit-identically
// against every protocol, making the availability comparison paired:
// every protocol faces exactly the same failures at exactly the same
// moments. The same events, with time 0, also serve as stepped scripts
// (runtime::make_scenario), which run each event to quiescence before
// the next.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"

namespace dynvote {

struct ScheduleEvent {
  enum class Kind { kPartition, kMerge, kCrash, kRecover };

  SimTime time = 0;
  Kind kind = Kind::kPartition;
  /// kPartition: the new components; a process no group lists stays in
  /// the component it was in.
  /// kMerge: the components being merged into one.
  std::vector<ProcessSet> groups;
  /// kCrash / kRecover: the process.
  ProcessId process;

  [[nodiscard]] std::string to_string() const;
};

struct ScheduleOptions {
  SimTime duration = 3'000'000;
  /// Mean gap between network events (exponential inter-arrival).
  SimTime mean_event_gap = 60'000;
  std::uint64_t seed = 42;
};

/// Turns `event` into the topology verbs that Cluster and
/// runtime::RuntimeFleet share: a partition installs its groups as
/// components, a merge installs the union of its groups as one
/// component, and a crash or recovery hits its process. Every script
/// reaches a fleet through here; when the event runs (its time, or
/// stepped to quiescence) is the caller's business.
template <typename Fleet>
void apply_event(Fleet& fleet, const ScheduleEvent& event) {
  switch (event.kind) {
    case ScheduleEvent::Kind::kPartition:
      fleet.partition(event.groups);
      break;
    case ScheduleEvent::Kind::kMerge: {
      ProcessSet merged;
      for (const ProcessSet& g : event.groups) merged = merged.set_union(g);
      fleet.partition({merged});
      break;
    }
    case ScheduleEvent::Kind::kCrash:
      fleet.crash(event.process);
      break;
    case ScheduleEvent::Kind::kRecover:
      fleet.recover(event.process);
      break;
  }
}

/// Generates a legal schedule over `processes`: partitions only split
/// existing components, merges only join existing ones, crashes hit live
/// processes, recoveries revive crashed ones. The generator tracks the
/// topology it implies, so replaying the schedule through the Simulator
/// is always valid.
[[nodiscard]] std::vector<ScheduleEvent> generate_schedule(
    const ProcessSet& processes, const ScheduleOptions& options);

}  // namespace dynvote
