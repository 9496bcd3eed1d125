// Observation interface for protocol executions.
//
// Protocols report what they do — attempts, formed primaries, rejections
// — to an external observer. The consistency checker, the metrics
// collector, and the availability harness are all observers; keeping
// them outside the protocol guarantees the measurement can't influence
// the measured (and lets the deliberately broken baselines run to
// completion so their inconsistencies can be counted).
#pragma once

#include <string>

#include "dv/session.hpp"
#include "membership/view.hpp"
#include "util/ids.hpp"

namespace dynvote {

class ProtocolObserver {
 public:
  virtual ~ProtocolObserver() = default;

  /// A process installed a membership view and started a session.
  virtual void on_view_installed(SimTime /*time*/, ProcessId /*p*/,
                                 const View& /*view*/) {}

  /// A process recorded the session in its attempt step.
  virtual void on_attempt(SimTime /*time*/, ProcessId /*p*/,
                          const Session& /*session*/) {}

  /// A process formed the session: it is now in the primary component.
  /// `rounds` is the number of communication rounds the session used.
  virtual void on_formed(SimTime /*time*/, ProcessId /*p*/,
                         const Session& /*session*/, int /*rounds*/) {}

  /// A process left the primary component (view change or crash).
  virtual void on_primary_lost(SimTime /*time*/, ProcessId /*p*/) {}

  /// A session was aborted: the view was not an eligible quorum (or a
  /// blocking baseline is stuck waiting for absent members — the reason
  /// string distinguishes the cases).
  virtual void on_session_rejected(SimTime /*time*/, ProcessId /*p*/,
                                   const View& /*view*/,
                                   const std::string& /*reason*/) {}
};

}  // namespace dynvote
