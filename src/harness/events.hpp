// Observer plumbing: fan-out and the metrics bridge.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "dv/observer.hpp"
#include "obs/metrics.hpp"

namespace dynvote {

/// Forwards protocol events to any number of observers (each cluster
/// group installs its consistency checker and metrics bridge).
class MultiObserver final : public ProtocolObserver {
 public:
  /// Borrowed; callers keep the observers alive for the run.
  void add(ProtocolObserver* observer);

  void on_view_installed(SimTime time, ProcessId p, const View& view) override;
  void on_attempt(SimTime time, ProcessId p, const Session& session) override;
  void on_formed(SimTime time, ProcessId p, const Session& session,
                 int rounds) override;
  void on_primary_lost(SimTime time, ProcessId p) override;
  void on_session_rejected(SimTime time, ProcessId p, const View& view,
                           const std::string& reason) override;

 private:
  std::vector<ProtocolObserver*> observers_;
};

/// Bridges protocol events into a MetricsRegistry: session counters plus
/// a rounds-per-formation histogram. Each of a cluster's consistency
/// groups installs one against its DvConfig::registry, or else the
/// simulation's registry, so protocol-level counts ship in the same
/// JSON export as the network counters.
///
/// Also accumulates "dv.primary_uptime_ticks": virtual time during which
/// at least one process was primary. An interval opens when the primary
/// count goes 0 -> 1 and closes (and is added) when it returns to 0; an
/// interval still open when the run ends is not counted. The span layer
/// (obs/spans.hpp) derives the same quantity from the trace alone with
/// the same convention, so the two can be cross-checked exactly.
class MetricsObserver final : public ProtocolObserver {
 public:
  explicit MetricsObserver(obs::MetricsRegistry& registry);

  void on_view_installed(SimTime time, ProcessId p, const View& view) override;
  void on_attempt(SimTime time, ProcessId p, const Session& session) override;
  void on_formed(SimTime time, ProcessId p, const Session& session,
                 int rounds) override;
  void on_primary_lost(SimTime time, ProcessId p) override;
  void on_session_rejected(SimTime time, ProcessId p, const View& view,
                           const std::string& reason) override;

 private:
  obs::Counter& views_;
  obs::Counter& attempts_;
  obs::Counter& formed_;
  obs::Counter& primary_lost_;
  obs::Counter& rejected_;
  obs::Histogram& rounds_;
  obs::Counter& uptime_;
  std::set<ProcessId> primary_procs_;
  SimTime uptime_open_ = 0;
};

}  // namespace dynvote
