// The metrics bridge: protocol trace events into a MetricsRegistry.
#pragma once

#include <set>

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
/// interval still open when the run ends is not counted. The span layer
/// (obs/spans.hpp) derives the same quantity from the trace alone with
/// the same convention, so the two can be cross-checked exactly.
class MetricsObserver final : public obs::TraceListener {
 public:
  explicit MetricsObserver(obs::MetricsRegistry& registry);

  /// Counts view installs, attempts, formations, primary losses and
  /// aborts; every other kind is ignored.
  void note(const obs::TraceEvent& event) override;

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
