// Per-group flight recorder: bounded last-N protocol events per group.
//
// Full tracing at fleet scale is unaffordable — 256 groups x 8 replicas
// exchange millions of messages, and the one global TraceSink ring
// interleaves every group, so by the time a shard misbehaves its events
// have been evicted by everyone else's. The flight recorder keeps a
// small independent ring of *protocol* events (messages are always
// skipped) per group, routed by the dense group-major ProcessId layout,
// and only materializes JSON when something goes wrong: a consistency
// violation or a reconfiguration-latency outlier dumps that group's
// ring as a post-mortem with causal chains — tracing that is affordable
// precisely because it is paid only on failure.
//
// The TraceSink tees every recorded event into the recorder
// (TraceSink::set_flight_recorder); the recorder never interferes with
// the sink's own ring or event ids, so post-mortem eids line up with
// any full trace export of the same run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/ring.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace dynvote::obs {

/// Version stamped into every post-mortem JSON document.
inline constexpr int kPostmortemSchemaVersion = 1;

/// Ring bound per group (protocol events only).
inline constexpr std::size_t kFlightRecorderCapacity = 64;

struct FlightRecorderOptions {
  /// Fleet shape: replica ProcessIds are dense group-major, so
  /// group = pid / group_size (shard/sharded_fleet.hpp).
  std::uint32_t num_groups = 1;
  std::uint32_t group_size = 1;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options);

  /// Routes `event` to its group's ring. Message kinds are skipped
  /// (affordability is the whole point); topology events are routed by
  /// their first member (components never span groups). Called by
  /// TraceSink::record for every retained event.
  void note(const TraceEvent& event);

  [[nodiscard]] std::uint32_t num_groups() const noexcept {
    return options_.num_groups;
  }
  /// The group's surviving events, oldest first; overwritten() counts
  /// the events evicted since construction.
  [[nodiscard]] const Ring<TraceEvent>& group_events(
      std::uint32_t group) const;

  /// Post-mortem for one group: the ring's events (same single-letter
  /// schema as trace.json) plus causal chains (causal_chain's
  /// root-first eid walks, flagged as truncated when the root's cause
  /// was evicted) for the most recent event and the last
  /// formation/abort. `reason` states what fired (the violation detail
  /// or the latency outlier).
  [[nodiscard]] JsonValue postmortem_json(std::uint32_t group,
                                          std::string_view reason,
                                          SimTime now) const;

 private:
  FlightRecorderOptions options_;
  /// One ring per group. note() copies each event into its ring, so a
  /// saturated ring assigns into the oldest slot and reuses its
  /// allocations: that keeps the recorder inside the telemetry
  /// overhead budget.
  std::vector<Ring<TraceEvent>> rings_;
};

}  // namespace dynvote::obs
