#include "harness/events.hpp"

namespace dynvote {

void MultiObserver::add(ProtocolObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

void MultiObserver::on_view_installed(SimTime time, ProcessId p,
                                      const View& view) {
  for (auto* o : observers_) o->on_view_installed(time, p, view);
}

void MultiObserver::on_attempt(SimTime time, ProcessId p,
                               const Session& session) {
  for (auto* o : observers_) o->on_attempt(time, p, session);
}

void MultiObserver::on_formed(SimTime time, ProcessId p, const Session& session,
                              int rounds) {
  for (auto* o : observers_) o->on_formed(time, p, session, rounds);
}

void MultiObserver::on_primary_lost(SimTime time, ProcessId p) {
  for (auto* o : observers_) o->on_primary_lost(time, p);
}

void MultiObserver::on_session_rejected(SimTime time, ProcessId p,
                                        const View& view,
                                        const std::string& reason) {
  for (auto* o : observers_) o->on_session_rejected(time, p, view, reason);
}

MetricsObserver::MetricsObserver(obs::MetricsRegistry& registry)
    : views_(registry.counter("dv.views_installed")),
      attempts_(registry.counter("dv.attempts")),
      formed_(registry.counter("dv.formed")),
      primary_lost_(registry.counter("dv.primary_lost")),
      rejected_(registry.counter("dv.rejected")),
      rounds_(registry.histogram("dv.rounds_per_form")),
      uptime_(registry.counter("dv.primary_uptime_ticks")) {}

void MetricsObserver::on_view_installed(SimTime /*time*/, ProcessId /*p*/,
                                        const View& /*view*/) {
  views_.increment();
}

void MetricsObserver::on_attempt(SimTime /*time*/, ProcessId /*p*/,
                                 const Session& /*session*/) {
  attempts_.increment();
}

void MetricsObserver::on_formed(SimTime time, ProcessId p,
                                const Session& /*session*/, int rounds) {
  formed_.increment();
  rounds_.observe(static_cast<std::uint64_t>(rounds < 0 ? 0 : rounds));
  if (primary_procs_.empty()) uptime_open_ = time;
  primary_procs_.insert(p);
}

void MetricsObserver::on_primary_lost(SimTime time, ProcessId p) {
  primary_lost_.increment();
  if (primary_procs_.erase(p) != 0 && primary_procs_.empty()) {
    uptime_.add(time - uptime_open_);
  }
}

void MetricsObserver::on_session_rejected(SimTime /*time*/, ProcessId /*p*/,
                                          const View& /*view*/,
                                          const std::string& /*reason*/) {
  rejected_.increment();
}

}  // namespace dynvote
