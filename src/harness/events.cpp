#include "harness/events.hpp"

namespace dynvote {

MetricsObserver::MetricsObserver(obs::MetricsRegistry& registry)
    : views_(registry.counter("dv.views_installed")),
      attempts_(registry.counter("dv.attempts")),
      formed_(registry.counter("dv.formed")),
      primary_lost_(registry.counter("dv.primary_lost")),
      rejected_(registry.counter("dv.rejected")),
      rounds_(registry.histogram("dv.rounds_per_form")),
      uptime_(registry.counter("dv.primary_uptime_ticks")) {}

void MetricsObserver::note(const obs::TraceEvent& event) {
  switch (event.kind) {
    case obs::TraceEventKind::kViewInstalled:
      views_.increment();
      break;
    case obs::TraceEventKind::kSessionAttempt:
      attempts_.increment();
      break;
    case obs::TraceEventKind::kSessionFormed:
      formed_.increment();
      rounds_.observe(event.value);
      if (primary_procs_.empty()) uptime_open_ = event.time;
      primary_procs_.insert(event.a);
      break;
    case obs::TraceEventKind::kPrimaryLost:
      primary_lost_.increment();
      if (primary_procs_.erase(event.a) != 0 && primary_procs_.empty()) {
        uptime_.add(event.time - uptime_open_);
      }
      break;
    case obs::TraceEventKind::kSessionAbort:
      rejected_.increment();
      break;
    default:
      break;
  }
}

}  // namespace dynvote
