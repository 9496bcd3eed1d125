// Persistent per-process protocol state (paper sections 4.2, 5.1, 6).
//
// Everything here except Is_Primary must survive crashes: the protocol
// writes the encoded state to stable storage before sending any message
// that depends on it (paper section 4.4). Is_Primary is volatile by
// definition — a recovering process is never primary until it forms a
// new session.
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "dv/last_formed.hpp"
#include "dv/session.hpp"
#include "quorum/participants.hpp"
#include "util/codec.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote {

struct ProtocolState {
  /// Session_Number: monotonically increasing (paper Lemma 1/3).
  SessionNumber session_number = 0;

  /// Last_Primary: the last session this process formed. nullopt encodes
  /// the paper's (∞, -1) — no primary known; Sub_Quorum(∞, T) is FALSE.
  std::optional<Session> last_primary;

  /// Ambiguous_Sessions: attempts made after last_primary, ascending by
  /// session number. At most one entry per distinct membership (a later
  /// attempt with the same membership overwrites the earlier).
  std::vector<AmbiguousSession> ambiguous;

  /// Last_Formed(q): the last session this process formed that q was a
  /// member of (optimized protocol, paper 5.1). Each distinct session is
  /// stored once (dv/last_formed.hpp).
  LastFormed last_formed;

  /// W / A participant sets (paper section 6). Maintained by every
  /// protocol variant; only consulted when dynamic participants are
  /// enabled.
  ParticipantTracker participants;

  /// False after recovering from a destroyed disk: this process's
  /// negative statements ("I did not form S") can no longer be trusted
  /// by peers' learning rules, so it advertises itself as history-less.
  bool has_history = true;

  /// Initial state (paper 4.2): core members start with
  /// Last_Primary = (W0, 0), everyone else with (∞, -1).
  [[nodiscard]] static ProtocolState initial(const ProcessSet& core,
                                             ProcessId self);

  /// State after recovery from a destroyed disk (paper footnote 4).
  [[nodiscard]] static ProtocolState after_disk_loss(ProcessId self);

  [[nodiscard]] SessionNumber last_primary_number() const noexcept {
    return last_primary ? last_primary->number : kNoSessionNumber;
  }

  /// Finds the recorded ambiguous session with the given number, if any,
  /// by binary search: the list ascends strictly by session number
  /// (record_attempt keeps it sorted, Lemma 1 makes numbers unique, and
  /// decode rejects any other order).
  [[nodiscard]] AmbiguousSession* find_ambiguous(SessionNumber number);

  /// Records an attempt (paper figure 1 / figure 3, step 2): appends
  /// (members, number), overwriting an existing attempt with the same
  /// membership, keeping ascending number order.
  void record_attempt(const Session& session, ProcessId self);

  /// Form step (paper figure 1 / figure 3, step 3): adopt `session` as
  /// Last_Primary, clear ambiguous sessions, refresh Last_Formed for all
  /// members, admit pending participants.
  void apply_form(const Session& session);

  /// Resolution-rule adoption (paper figure 2): learned that `session`
  /// (one of our ambiguous attempts) was formed by some member. Adopt it
  /// as Last_Primary and drop every ambiguous session it supersedes.
  void adopt_formed(const Session& session);

  void encode(Encoder& enc) const;
  [[nodiscard]] static ProtocolState decode(Decoder& dec);

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ProtocolState&, const ProtocolState&) = default;
};

/// One change of ProtocolState, and one record of the persistence WAL
/// (dv/wal.hpp). A protocol step changes its durable state only through
/// WalPersistence::apply, which runs `apply` on the live state and stages
/// the same delta for the step's commit, so replay(checkpoint, log)
/// reproduces the live state by construction; the cross-check in
/// WalPersistence re-reads the disk to confirm it.
enum class StateDeltaKind : std::uint8_t {
  /// Attempt step: Session_Number := S.N, record_attempt(S), then the
  /// deliberately-unsound truncation to the writer's
  /// BasicDvProtocol::ambiguous_record_limit() if it has one. (Kind
  /// byte 1 is retired; decode rejects it.)
  kAttempt = 2,
  /// Form step: Session_Number := S.N, apply_form(S). S is the *recorded*
  /// session (baselines may pin a different membership than the view).
  kForm = 3,
  /// Resolution-rule adoption (paper figure 2): adopt_formed(S).
  kAdopt = 4,
  /// Learning rule outcome (paper 5.2): S.A[q] := k for the ambiguous
  /// session with the given number.
  kKnowledge = 5,
  /// Resolution-rule deletions: drop the ambiguous sessions with these
  /// numbers ("formed by nobody"), listed in ascending order.
  kEraseAmbiguous = 6,
  /// Attempt-step participant merge (paper section 6): the post-merge
  /// W / A tracker (small: two process sets).
  kParticipants = 7,
};

struct StateDelta {
  /// kKnowledge: S.A[subject] := knowledge for the ambiguous session S
  /// numbered `number`.
  struct Learned {
    SessionNumber number = 0;
    ProcessId subject;
    FormedKnowledge knowledge = FormedKnowledge::kUnknown;
    friend bool operator==(const Learned&, const Learned&) = default;
  };

  StateDeltaKind kind = StateDeltaKind::kKnowledge;
  std::uint64_t record_limit = 0;  // kAttempt (0 = unlimited)
  /// The kind's operand and nothing else: a Learned fact (kKnowledge),
  /// a Session (kAttempt / kForm / kAdopt), the erased numbers, ascending
  /// (kEraseAmbiguous), or the merged tracker (kParticipants). The
  /// learning pass stages one delta per fact, so building, staging and
  /// destroying a fact touches a few words, not every kind's fields.
  std::variant<Learned, Session, std::vector<SessionNumber>,
               ParticipantTracker>
      operand;

  [[nodiscard]] static StateDelta attempt(Session s,
                                          std::uint64_t record_limit);
  [[nodiscard]] static StateDelta form(Session s);
  [[nodiscard]] static StateDelta adopt(Session s);
  [[nodiscard]] static StateDelta learned(SessionNumber n, ProcessId q,
                                          FormedKnowledge k);
  [[nodiscard]] static StateDelta erase_ambiguous(
      std::vector<SessionNumber> numbers);
  [[nodiscard]] static StateDelta merge_participants(ParticipantTracker t);

  /// Applies this delta to `state`, live or in replay. `self` is the
  /// process that owns the state (attempt records initialize their
  /// knowledge array around it).
  void apply(ProtocolState& state, ProcessId self) const;

  void encode(Encoder& enc) const;
  [[nodiscard]] static StateDelta decode(Decoder& dec);

  friend bool operator==(const StateDelta&, const StateDelta&) = default;
};

/// Versioned checkpoint record: the full snapshot plus the WAL sequence
/// number it covers. Distinguished from a legacy raw ProtocolState
/// snapshot by its leading magic byte, so recovery reads both formats.
void encode_checkpoint(Encoder& enc, const ProtocolState& state,
                       std::uint64_t covers_lsn);

struct CheckpointRecord {
  ProtocolState state;
  /// Log records with lsn <= covers_lsn are already folded into `state`
  /// (a crash between checkpoint write and log truncation leaves them in
  /// the log; replay must skip them).
  std::uint64_t covers_lsn = 0;
};

/// Decodes either a checkpoint record or a legacy raw snapshot (which
/// covers nothing, lsn 0).
[[nodiscard]] CheckpointRecord decode_checkpoint(
    const std::vector<std::uint8_t>& bytes);

}  // namespace dynvote
