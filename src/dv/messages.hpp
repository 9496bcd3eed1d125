// Protocol messages.
//
// The dynamic-voting family uses two message kinds per session (paper
// figure 1 / figure 3):
//
//   phase 0 — InfoPayload: Session_Number, Last_Primary,
//             Ambiguous_Sessions, plus Last_Formed (optimized protocol)
//             and the W/A participant sets (section 6).
//   phase 1 — AttemptPayload.
//
// The three-phase-recovery baseline adds small intermediate resolution
// payloads. All payloads know their own encoded size (through the binary
// codec) so the communication benchmarks report honest byte counts.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "dv/last_formed.hpp"
#include "dv/session.hpp"
#include "quorum/participants.hpp"
#include "sim/message.hpp"
#include "util/codec.hpp"

namespace dynvote {

/// Base for session-protocol messages: each belongs to a numbered phase
/// within a session, and the generic phase collector in protocol_base
/// groups them by it.
class PhasedPayload : public sim::MessagePayload {
 public:
  [[nodiscard]] virtual int phase() const noexcept = 0;
  [[nodiscard]] bool phased() const noexcept final { return true; }
};

/// Phase-0 state exchange ("Send your Session_Number, Last_Primary, and
/// Ambiguous_Sessions to all the members of M").
class InfoPayload final : public PhasedPayload {
 public:
  SessionNumber session_number = 0;
  bool has_history = true;
  std::optional<Session> last_primary;
  std::vector<Session> ambiguous;  // (M, N) pairs; knowledge arrays are local
  /// Optimized protocol only: the sender's Last_Formed, restricted to the
  /// members of the view the info is sent in. The restriction loses
  /// nothing: a receiver p reads only Last_Formed_q(p)
  /// (OptimizedDvProtocol::pre_decision_update looks up its own id), and
  /// view-gated delivery means p is a member of the sender's view. Each
  /// session the entries reference is encoded once, however many
  /// members last formed it.
  LastFormed last_formed;
  ParticipantTracker participants;  // section 6 only

  [[nodiscard]] int phase() const noexcept override { return 0; }
  [[nodiscard]] std::string type_name() const override { return "dv.info"; }
  [[nodiscard]] std::size_t encoded_size() const override;

  void encode(Encoder& enc) const;

 private:
  // A broadcast asks for the size once per recipient; the payload is
  // immutable by the time it reaches the network, so encode once.
  // (Every encoding starts with an 8-byte session number, so 0 is free
  // as the "not yet computed" sentinel.)
  mutable std::size_t cached_size_ = 0;
};

/// The attempt message (paper figure 1, step 2). Phase 1 in the
/// two-round protocols; the three-phase-recovery baseline sends it as a
/// later phase after its explicit resolution rounds.
class AttemptPayload final : public PhasedPayload {
 public:
  explicit AttemptPayload(int phase = 1) : phase_(phase) {}

  SessionNumber session_number = 0;

  [[nodiscard]] int phase() const noexcept override { return phase_; }
  [[nodiscard]] std::string type_name() const override { return "dv.attempt"; }
  [[nodiscard]] std::size_t encoded_size() const override;

 private:
  int phase_;
};

/// Generic small payload for auxiliary rounds (the explicit recovery
/// phases of the three-phase baseline, acknowledgement rounds, ...).
class RoundPayload final : public PhasedPayload {
 public:
  RoundPayload(int phase, std::string name) : phase_(phase), name_(std::move(name)) {}

  [[nodiscard]] int phase() const noexcept override { return phase_; }
  [[nodiscard]] std::string type_name() const override { return name_; }
  [[nodiscard]] std::size_t encoded_size() const override;

 private:
  int phase_;
  std::string name_;
};

}  // namespace dynvote
