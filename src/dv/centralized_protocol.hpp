// The centralized variant of the basic protocol (paper section 4.4).
//
// "It is straightforward to convert it to work in a centralized fashion
//  by appointing a coordinator for each session. In every step the
//  coordinator receives messages from all processes in a session, does
//  local computation, and sends every process its decision. The
//  centralized version requires less point to point messages. However,
//  with hardware multicast capabilities, the symmetric version is more
//  efficient."
//
// Realization (coordinator = lowest-ranked view member):
//
//   hop 1  every member sends its Info to the coordinator;
//   hop 2  the coordinator computes Max_Session / Max_Primary /
//          Max_Ambiguous_Sessions, decides eligibility, records its own
//          attempt, and sends every member the attempt decision (with
//          the agreed session number);
//   hop 3  each member records the attempt durably and acknowledges;
//   hop 4  on all acks the coordinator forms and tells everyone to form.
//
// Per new quorum: 4(n-1) point-to-point messages and 4 message latencies
// — versus the symmetric protocol's 2n(n-1) messages in 2 latencies.
// The safety argument is unchanged: a member acknowledges only after its
// attempt record is durable, and the coordinator commits only after all
// acknowledgements, so any member that detaches before the commit still
// holds the session ambiguous.
#pragma once

#include <map>

#include "dv/basic_protocol.hpp"
#include "dv/protocol_node.hpp"
#include "dv/state.hpp"

namespace dynvote {

/// Messages of the centralized variant. All carry their hop so traces
/// stay readable; collection is role-specific, not phase-generic.
class CentralizedPayload final : public sim::MessagePayload {
 public:
  enum class Hop : std::uint8_t {
    kInfo = 1,     // member -> coordinator: the step-1 state
    kAttempt = 2,  // coordinator -> member: attempt with session number
    kAck = 3,      // member -> coordinator: attempt recorded durably
    kCommit = 4,   // coordinator -> member: all acked, form
  };

  Hop hop = Hop::kInfo;
  InfoPayload info;               // kInfo only
  SessionNumber session_number = 0;  // kAttempt / kAck / kCommit

  [[nodiscard]] std::string type_name() const override;
  [[nodiscard]] std::size_t encoded_size() const override;
};

class CentralizedDvProtocol : public ProtocolNode {
 public:
  CentralizedDvProtocol(sim::Transport& transport, ProcessId id,
                        DvConfig config);

  [[nodiscard]] const ProtocolState& state() const noexcept {
    return wal_.state();
  }

  /// The coordinator of a view: its lowest-ranked member.
  [[nodiscard]] static ProcessId coordinator_of(const View& view);

 protected:
  void on_view(const View& view) override;
  void on_message(ProcessId from, sim::PayloadPtr payload) override;
  void on_crash() override;
  void on_recover() override;

 private:
  [[nodiscard]] bool coordinating() const;
  void run_coordinator_decision();
  void maybe_commit();
  void handle_attempt(const CentralizedPayload& msg);
  void handle_commit(const CentralizedPayload& msg);
  void form(SessionNumber number);
  /// Records the attempt durably (paper section 4.4: before the message
  /// that exposes it) and reports it.
  void persist_attempt(const Session& session);

  DvConfig config_;
  /// The protocol state and its persistence; see BasicDvProtocol::wal_.
  WalPersistence wal_;

  bool session_active_ = false;
  std::map<ProcessId, InfoPayload> collected_infos_;  // coordinator only
  ProcessSet acked_;                                  // coordinator only
  bool attempted_this_session_ = false;
};

}  // namespace dynvote
