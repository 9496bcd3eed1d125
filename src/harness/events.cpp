#include "harness/events.hpp"

#include "util/ensure.hpp"

namespace dynvote {

MetricsObserver::MetricsObserver(obs::MetricsRegistry& registry)
    : registry_(registry),
      views_(registry.counter("dv.views_installed")),
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
      if (event.detail.starts_with("blocked")) ++blocked_;
      break;
    case obs::TraceEventKind::kAmbiguityRecord:
      note_ambiguity(event);
      break;
    default:
      break;
  }
}

SimTime MetricsObserver::primary_uptime(SimTime horizon) const {
  if (primary_procs_.empty()) return uptime_.value();
  ensure(horizon >= uptime_open_,
         "primary_uptime: horizon precedes the open uptime interval");
  return uptime_.value() + (horizon - uptime_open_);
}

void MetricsObserver::note_ambiguity(const obs::TraceEvent& event) {
  if (ambiguity_level_ == nullptr) {
    ambiguity_level_ = &registry_.gauge("dv.ambiguous_recorded");
    ambiguity_ticks_ = &registry_.counter("dv.ambiguity_ticks");
  }
  ambiguity_level_->set(static_cast<std::int64_t>(event.value));
  const std::size_t p = event.a.value();
  if (p >= ambiguity_.size()) ambiguity_.resize(p + 1);
  Ambiguity& process = ambiguity_[p];
  if (process.level == 0 && event.value > 0) {
    process.open_since = event.time;
  } else if (process.level > 0 && event.value == 0) {
    ambiguity_ticks_->add(event.time - process.open_since);
  }
  process.level = event.value;
}

}  // namespace dynvote
