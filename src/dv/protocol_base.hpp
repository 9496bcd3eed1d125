// SessionProtocolBase: the shared session lifecycle of the symmetric
// (all-to-all broadcast) protocols.
//
// Every symmetric protocol in this library (the paper's protocols and
// five of the six baselines) runs in *sessions* driven by membership
// views:
//
//   * a new view aborts any session in progress and starts a fresh one
//     (paper section 4: "If a process receives a membership message in
//     the course of a session, it aborts the session and invokes a new
//     session");
//   * a session proceeds in numbered phases; in each phase the process
//     broadcasts one message to all view members (itself included) and
//     waits to receive the phase message from *all* members;
//   * a phase message from a fast member can overtake a slow member's
//     earlier-phase message (channels are FIFO per pair, not globally),
//     so arrivals are bucketed per phase, into one slot per view member
//     laid out when the view is installed.
//
// Concrete protocols implement begin_session (send the phase-0 message)
// and on_phase_complete (decide: advance, form, or abort).
//
// The coordinator-based centralized variant (paper 4.4) does not fit the
// broadcast-phase shape and implements ProtocolNode directly.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dv/messages.hpp"
#include "dv/observer.hpp"
#include "dv/protocol_node.hpp"
#include "util/ids.hpp"

namespace dynvote {

class SessionProtocolBase : public ProtocolNode {
 public:
  /// Collected messages of one phase: (sender, payload) in view-member
  /// (id) order. Handed to on_phase_complete only once every slot is
  /// filled.
  using PhaseMessages =
      std::vector<std::pair<ProcessId, std::shared_ptr<const PhasedPayload>>>;

 protected:
  SessionProtocolBase(sim::Transport& transport, ProcessId id, int max_phases);

  // -- Node hooks (final: the lifecycle is owned here) ----------------------
  void on_view(const View& view) final;
  void on_message(ProcessId from, sim::PayloadPtr payload) final;
  void on_crash() final;
  void on_recover() final;

  // -- derived-protocol interface -------------------------------------------

  /// A session started for `view`; send the phase-0 broadcast (or decide
  /// locally and call mark_primary / abort_session for 0-round
  /// protocols).
  virtual void begin_session(const View& view) = 0;

  /// All members' messages for `phase` have arrived. The implementation
  /// must either advance (send_phase), finish (mark_primary), or stop
  /// (abort_session); doing nothing ends the session silently.
  virtual void on_phase_complete(int phase, const PhaseMessages& messages) = 0;

  /// Volatile-state reset on crash / persistent-state reload on recovery.
  virtual void handle_crash() {}
  virtual void handle_recover() {}

  // -- helpers for derived protocols ------------------------------------------

  /// Broadcasts `payload` (whose phase() must equal `phase`) to every
  /// view member and starts collecting that phase.
  void send_phase(int phase, std::shared_ptr<const PhasedPayload> payload);

  /// Ends the session successfully: Is_Primary := true for `session`.
  void mark_primary(const Session& session);

  /// Ends the session: the view is not an eligible quorum. `reason` moves
  /// into the abort's trace event.
  void abort_session(std::string reason);

  [[nodiscard]] const View& session_view() const;

 private:
  /// One phase's slots; index i holds the message of the member whose
  /// index_of is i.
  struct PhaseSlots {
    PhaseMessages messages;
    std::size_t filled = 0;
  };

  void try_complete_phase();

  int max_phases_;
  bool session_active_ = false;
  int current_phase_ = -1;
  int rounds_used_ = 0;
  bool in_completion_ = false;
  std::vector<PhaseSlots> collected_;
};

}  // namespace dynvote
