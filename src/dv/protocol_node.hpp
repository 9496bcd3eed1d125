// ProtocolNode: the common face of every protocol implementation.
//
// Both protocol shapes in the library — the symmetric phase-broadcast
// protocols (SessionProtocolBase) and the coordinator-based centralized
// variant — expose the same surface: Is_Primary state and the current
// primary session. Every protocol event goes to the trace sink, which is
// what the harness's checker and metrics read (obs::TraceListener). The
// harness, the service facade and the applications depend only on this
// class.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dv/observer.hpp"
#include "dv/session.hpp"
#include "membership/view.hpp"
#include "obs/trace.hpp"
#include "sim/node.hpp"

namespace dynvote {

class ProtocolNode : public sim::Node {
 public:
  ProtocolNode(sim::Transport& transport, ProcessId id)
      : sim::Node(transport, id) {}

  /// Only benchmark/adapter.cpp's per-process stamps use this (ROADMAP
  /// item 3 removes it); everything else reads the trace sink.
  void set_observer(ProtocolObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Is_Primary: true iff this process's current membership is the
  /// primary component.
  [[nodiscard]] bool is_primary() const noexcept { return primary_.has_value(); }

  /// The session of the primary component this process is currently in.
  [[nodiscard]] const std::optional<Session>& primary_session() const noexcept {
    return primary_;
  }

  /// Number of sessions this node formed over its lifetime.
  [[nodiscard]] std::uint64_t formed_count() const noexcept {
    return formed_count_;
  }

 protected:
  /// Records entry into a freshly formed primary, with the session's
  /// communication-round count. The trace event cites the session's
  /// attempt (or, for zero-round protocols, the view install) as its
  /// cause.
  void enter_primary(const Session& session, int rounds) {
    primary_ = session;
    ++formed_count_;
    obs::TraceEvent event;
    event.time = now();
    event.kind = obs::TraceEventKind::kSessionFormed;
    event.a = id();
    event.number = session.number;
    event.value = static_cast<std::uint64_t>(rounds);
    event.members = session.members;
    event.lamport = lamport_tick();
    event.cause = session_cause_eid();
    formed_eid_ = trace().record(std::move(event));
    if (observer_) observer_->on_formed(now(), id(), session, rounds);
  }

  /// Reports loss of primary status (view change / crash) exactly once.
  /// The trace event cites the formation it ends.
  void leave_primary() {
    if (!primary_) return;
    primary_.reset();
    obs::TraceEvent event;
    event.time = now();
    event.kind = obs::TraceEventKind::kPrimaryLost;
    event.a = id();
    event.lamport = lamport_tick();
    event.cause = formed_eid_;
    formed_eid_ = 0;
    trace().record(std::move(event));
    if (observer_) observer_->on_primary_lost(now(), id());
  }

  /// Records the view install, citing the topology change that produced
  /// it; resets the per-session causal chain (a new view starts a new
  /// session in every protocol).
  void notify_view_installed(const View& view) {
    obs::TraceEvent event;
    event.time = now();
    event.kind = obs::TraceEventKind::kViewInstalled;
    event.a = id();
    event.number = static_cast<std::int64_t>(view.id.value());
    event.members = view.members;
    event.lamport = lamport_tick();
    event.cause = last_topology_eid();
    view_eid_ = trace().record(std::move(event));
    attempt_eid_ = 0;
    if (observer_) observer_->on_view_installed(now(), id(), view);
  }
  void notify_attempt(const Session& session) {
    obs::TraceEvent event;
    event.time = now();
    event.kind = obs::TraceEventKind::kSessionAttempt;
    event.a = id();
    event.number = session.number;
    event.members = session.members;
    event.lamport = lamport_tick();
    event.cause = view_eid_;
    attempt_eid_ = trace().record(std::move(event));
    if (observer_) observer_->on_attempt(now(), id(), session);
  }
  void notify_rejected(const View& view, const std::string& reason) {
    obs::TraceEvent event;
    event.time = now();
    event.kind = obs::TraceEventKind::kSessionAbort;
    event.a = id();
    event.number = static_cast<std::int64_t>(view.id.value());
    event.members = view.members;
    event.detail = reason;
    event.lamport = lamport_tick();
    event.cause = session_cause_eid();
    trace().record(std::move(event));
    if (observer_) observer_->on_session_rejected(now(), id(), view, reason);
  }

  /// Causal parent for events of the current session: the attempt if one
  /// was recorded in this view, else the view install itself.
  [[nodiscard]] std::uint64_t session_cause_eid() const noexcept {
    return attempt_eid_ != 0 ? attempt_eid_ : view_eid_;
  }

 private:
  ProtocolObserver* observer_ = nullptr;
  std::optional<Session> primary_;
  std::uint64_t formed_count_ = 0;
  std::uint64_t view_eid_ = 0;     // eid of the latest kViewInstalled
  std::uint64_t attempt_eid_ = 0;  // eid of this session's kSessionAttempt
  std::uint64_t formed_eid_ = 0;   // eid of the live kSessionFormed
};

}  // namespace dynvote
