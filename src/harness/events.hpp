// The metrics bridge: protocol trace events into a MetricsRegistry.
#pragma once

#include <set>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dynvote {

/// Bridges protocol events into a MetricsRegistry: session counters plus
/// a rounds-per-formation histogram. Each of a cluster's consistency
/// groups keeps one against its DvConfig::registry, or else the
/// simulation's registry, so protocol-level counts ship in the same
/// JSON export as the network counters.
///
/// Also accumulates "dv.primary_uptime_ticks": virtual time during which
/// at least one process was primary. An interval opens when the primary
/// count goes 0 -> 1 and closes (and is added) when it returns to 0; an
/// interval still open when the run ends is not counted by the counter,
/// but primary_uptime(horizon) adds it. The observer is the one owner
/// of uptime: availability (E5-E8) reads primary_uptime, and a trace
/// replay (harness/trace_replay.hpp) runs observers of its own.
///
/// The ambiguous-record levels feed the "dv.ambiguous_recorded" gauge
/// (the latest level any process recorded, and the highest) and
/// "dv.ambiguity_ticks": per process, an episode opens when its level
/// leaves 0 and closes when it returns to 0, and each closed episode's
/// length is added, so the counter is a sum over processes (replica
/// ticks), not the time some process was ambiguous. An episode still
/// open when the run ends is not counted, like an open uptime interval.
/// Both instruments are registered at the first level recorded, so a
/// protocol that records none (the naive and static baselines, the
/// centralized protocol) adds neither name to the registry.
class MetricsObserver final : public obs::TraceListener {
 public:
  explicit MetricsObserver(obs::MetricsRegistry& registry);

  /// Counts view installs, attempts, formations, primary losses and
  /// aborts and follows the ambiguous-record levels; every other kind is
  /// ignored.
  void note(const obs::TraceEvent& event) override;

  /// Aborted sessions ("dv.rejected").
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_.value();
  }
  /// Aborts whose reason starts with "blocked": the blocking baseline's
  /// wait for a stale quorum, its signature failure mode. A plain count,
  /// not a registry instrument.
  [[nodiscard]] std::uint64_t blocked() const noexcept { return blocked_; }
  /// Voting rounds per formation ("dv.rounds_per_form").
  [[nodiscard]] const obs::Histogram& rounds() const noexcept {
    return rounds_;
  }
  /// Virtual time with a live primary up to `horizon`: the
  /// "dv.primary_uptime_ticks" counter (shared with any group reporting
  /// to the same registry) plus, while some process is still primary,
  /// `horizon` minus the open interval's start. `horizon` must not
  /// precede that start.
  [[nodiscard]] SimTime primary_uptime(SimTime horizon) const;

 private:
  /// One process's ambiguous-record level and, while it is above 0, the
  /// start of its open episode.
  struct Ambiguity {
    std::uint64_t level = 0;
    SimTime open_since = 0;
  };

  void note_ambiguity(const obs::TraceEvent& event);

  obs::MetricsRegistry& registry_;
  obs::Counter& views_;
  obs::Counter& attempts_;
  obs::Counter& formed_;
  obs::Counter& primary_lost_;
  obs::Counter& rejected_;
  obs::Histogram& rounds_;
  obs::Counter& uptime_;
  std::set<ProcessId> primary_procs_;
  SimTime uptime_open_ = 0;
  std::uint64_t blocked_ = 0;
  /// Registered at the first ambiguous-record level (nullptr before).
  obs::Gauge* ambiguity_level_ = nullptr;
  obs::Counter* ambiguity_ticks_ = nullptr;
  /// ambiguity_[p.value()]; grown on a process's first record.
  std::vector<Ambiguity> ambiguity_;
};

}  // namespace dynvote
