// Sessions and ambiguous sessions (paper sections 4.2, 4.4, 5.1).
//
// A session S of the protocol is identified by its membership S.M and
// session number S.N. A *formed* session is one at least one member has
// formed; an *attempted* session is one at least one member recorded in
// the attempt step. Every formed session is in particular attempted.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/codec.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote {

struct Session {
  ProcessSet members;      // S.M
  SessionNumber number = 0;  // S.N

  friend bool operator==(const Session&, const Session&) = default;
  friend auto operator<=>(const Session&, const Session&) = default;

  /// Renders as "({p0,p1},3)".
  [[nodiscard]] std::string to_string() const;
  /// Appends to_string()'s text to `out`, with no temporaries.
  void append_to(std::string& out) const;

  void encode(Encoder& enc) const;
  [[nodiscard]] static Session decode(Decoder& dec);
};

/// What a process knows about whether a given member formed a session
/// (the S.A array of paper section 5.1).
enum class FormedKnowledge : std::int8_t {
  kNotFormed = -1,  // S.A[i] = -1: known not to have formed S
  kUnknown = 0,     // S.A[i] =  0: no information
  kFormed = 1,      // S.A[i] =  1: known to have formed S
};

/// An entry of Ambiguous_Sessions: a session this process attempted to
/// form after its last formed primary, annotated (in the optimized
/// protocol) with per-member formation knowledge.
struct AmbiguousSession {
  Session session;
  /// knowledge[i] is what we know about the member at
  /// session.members.index_of position i (ascending id order);
  /// always sized to the membership. The basic protocol carries the array
  /// too but never updates it past the initial self = kNotFormed.
  std::vector<FormedKnowledge> knowledge;

  AmbiguousSession() = default;

  /// Fresh attempt record as written in the attempt step: everything
  /// unknown except the recording process itself, which has certainly not
  /// formed the session yet (paper figure 3, step 2).
  AmbiguousSession(Session s, ProcessId self);

  [[nodiscard]] FormedKnowledge knowledge_about(ProcessId q) const;
  void set_knowledge(ProcessId q, FormedKnowledge k);

  /// True iff every member (including self) is known not to have formed
  /// the session — the deletion condition of resolution rule 1.
  [[nodiscard]] bool known_unformed_by_all() const;

  /// True iff some member is known to have formed the session.
  [[nodiscard]] bool known_formed_by_someone() const;

  [[nodiscard]] std::string to_string() const;

  void encode(Encoder& enc) const;
  [[nodiscard]] static AmbiguousSession decode(Decoder& dec);

  friend bool operator==(const AmbiguousSession&,
                         const AmbiguousSession&) = default;
};

void encode_optional_session(Encoder& enc, const std::optional<Session>& s);
[[nodiscard]] std::optional<Session> decode_optional_session(Decoder& dec);

[[nodiscard]] std::string to_string(const std::optional<Session>& s);

}  // namespace dynvote
