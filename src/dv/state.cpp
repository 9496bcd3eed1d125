#include "dv/state.hpp"

#include <algorithm>

#include "util/ensure.hpp"

namespace dynvote {

ProtocolState ProtocolState::initial(const ProcessSet& core, ProcessId self) {
  ProtocolState state;
  state.participants = ParticipantTracker::initial(core, self);
  if (core.contains(self)) {
    state.session_number = 0;
    state.last_primary = Session{core, 0};
    state.last_formed.assign(*state.last_primary);
  } else {
    state.session_number = 0;
    state.last_primary = std::nullopt;  // (∞, -1)
  }
  return state;
}

ProtocolState ProtocolState::after_disk_loss(ProcessId self) {
  ProtocolState state;
  state.participants = ParticipantTracker::initial(ProcessSet{}, self);
  state.last_primary = std::nullopt;
  state.has_history = false;
  return state;
}

AmbiguousSession* ProtocolState::find_ambiguous(SessionNumber number) {
  const auto it = std::lower_bound(
      ambiguous.begin(), ambiguous.end(), number,
      [](const AmbiguousSession& a, SessionNumber n) {
        return a.session.number < n;
      });
  return it != ambiguous.end() && it->session.number == number ? &*it
                                                                : nullptr;
}

void ProtocolState::record_attempt(const Session& session, ProcessId self) {
  ensure(session.members.contains(self), "attempting a session we're not in");
  ensure(session.number > last_primary_number(),
         "attempt number must exceed last primary's");
  // "If Ambiguous_Sessions already contains an attempt with the same
  // membership, overwrite it" (paper figure 1, step 2).
  std::erase_if(ambiguous, [&](const AmbiguousSession& a) {
    return a.session.members == session.members;
  });
  ambiguous.emplace_back(session, self);
  std::sort(ambiguous.begin(), ambiguous.end(),
            [](const AmbiguousSession& a, const AmbiguousSession& b) {
              return a.session.number < b.session.number;
            });
}

void ProtocolState::apply_form(const Session& session) {
  last_primary = session;
  ambiguous.clear();
  last_formed.assign(session);
  participants.admit_on_form(session.members);
}

void ProtocolState::adopt_formed(const Session& session) {
  ensure(session.number > last_primary_number(),
         "adopting a session older than Last_Primary");
  last_primary = session;
  last_formed.assign(session);
  // Resolution rule 2: every ambiguous session with a number <= the
  // formed one is superseded ("p behaves as if it also formed F").
  std::erase_if(ambiguous, [&](const AmbiguousSession& a) {
    return a.session.number <= session.number;
  });
}

namespace {
// Bump when the persistent layout changes; decode rejects other versions
// instead of misreading old disks. Version 2: Last_Formed stores each
// session once (LastFormed::encode) instead of one copy per entry.
constexpr std::uint8_t kStateFormatVersion = 2;
}  // namespace

void ProtocolState::encode(Encoder& enc) const {
  enc.put_u8(kStateFormatVersion);
  enc.put_i64(session_number);
  encode_optional_session(enc, last_primary);
  enc.put_varint(ambiguous.size());
  for (const auto& a : ambiguous) a.encode(enc);
  last_formed.encode(enc);
  participants.encode(enc);
  enc.put_bool(has_history);
}

ProtocolState ProtocolState::decode(Decoder& dec) {
  if (dec.get_u8() != kStateFormatVersion) {
    throw CodecError("unsupported protocol-state format version");
  }
  ProtocolState state;
  state.session_number = dec.get_i64();
  state.last_primary = decode_optional_session(dec);
  const std::uint64_t n_ambiguous = dec.get_varint();
  // Every entry needs at least one byte: a length prefix beyond the
  // remaining buffer is malformed (and must not drive a huge reserve).
  if (n_ambiguous > dec.remaining()) {
    throw CodecError("ambiguous-session count prefix too large");
  }
  state.ambiguous.reserve(n_ambiguous);
  for (std::uint64_t i = 0; i < n_ambiguous; ++i) {
    state.ambiguous.push_back(AmbiguousSession::decode(dec));
    // find_ambiguous searches by number, so only one order is valid.
    if (i != 0 && state.ambiguous[i].session.number <=
                      state.ambiguous[i - 1].session.number) {
      throw CodecError("ambiguous sessions not ascending by session number");
    }
  }
  state.last_formed = LastFormed::decode(dec);
  state.participants = ParticipantTracker::decode(dec);
  state.has_history = dec.get_bool();
  return state;
}

StateDelta StateDelta::attempt(Session s, std::uint64_t record_limit) {
  return {StateDeltaKind::kAttempt, record_limit, std::move(s)};
}

StateDelta StateDelta::form(Session s) {
  return {StateDeltaKind::kForm, 0, std::move(s)};
}

StateDelta StateDelta::adopt(Session s) {
  return {StateDeltaKind::kAdopt, 0, std::move(s)};
}

StateDelta StateDelta::learned(SessionNumber n, ProcessId q,
                               FormedKnowledge k) {
  return {StateDeltaKind::kKnowledge, 0, Learned{n, q, k}};
}

StateDelta StateDelta::erase_ambiguous(std::vector<SessionNumber> numbers) {
  return {StateDeltaKind::kEraseAmbiguous, 0, std::move(numbers)};
}

StateDelta StateDelta::merge_participants(ParticipantTracker t) {
  return {StateDeltaKind::kParticipants, 0, std::move(t)};
}

void StateDelta::apply(ProtocolState& state, ProcessId self) const {
  switch (kind) {
    case StateDeltaKind::kAttempt: {
      const Session& session = std::get<Session>(operand);
      state.session_number = session.number;
      state.record_attempt(session, self);
      if (record_limit != 0 && state.ambiguous.size() > record_limit) {
        state.ambiguous.erase(
            state.ambiguous.begin(),
            state.ambiguous.end() - static_cast<std::ptrdiff_t>(record_limit));
      }
      return;
    }
    case StateDeltaKind::kForm: {
      const Session& session = std::get<Session>(operand);
      state.session_number = session.number;
      state.apply_form(session);
      return;
    }
    case StateDeltaKind::kAdopt:
      state.adopt_formed(std::get<Session>(operand));
      return;
    case StateDeltaKind::kKnowledge: {
      const Learned& fact = std::get<Learned>(operand);
      AmbiguousSession* amb = state.find_ambiguous(fact.number);
      ensure(amb != nullptr, "knowledge delta for unrecorded session");
      amb->set_knowledge(fact.subject, fact.knowledge);
      return;
    }
    case StateDeltaKind::kEraseAmbiguous: {
      const auto& numbers = std::get<std::vector<SessionNumber>>(operand);
      std::erase_if(state.ambiguous, [&numbers](const AmbiguousSession& a) {
        return std::binary_search(numbers.begin(), numbers.end(),
                                  a.session.number);
      });
      return;
    }
    case StateDeltaKind::kParticipants:
      state.participants = std::get<ParticipantTracker>(operand);
      return;
  }
  ensure(false, "unknown state-delta kind");
}

namespace {

std::uint8_t encode_knowledge(FormedKnowledge k) {
  return static_cast<std::uint8_t>(static_cast<std::int8_t>(k) + 1);
}

FormedKnowledge decode_knowledge(std::uint8_t byte) {
  if (byte > 2) throw CodecError("invalid formed-knowledge byte");
  return static_cast<FormedKnowledge>(static_cast<std::int8_t>(byte) - 1);
}

}  // namespace

void StateDelta::encode(Encoder& enc) const {
  enc.put_u8(static_cast<std::uint8_t>(kind));
  switch (kind) {
    case StateDeltaKind::kAttempt:
      std::get<Session>(operand).encode(enc);
      enc.put_varint(record_limit);
      return;
    case StateDeltaKind::kForm:
    case StateDeltaKind::kAdopt:
      std::get<Session>(operand).encode(enc);
      return;
    case StateDeltaKind::kKnowledge: {
      const Learned& fact = std::get<Learned>(operand);
      enc.put_i64(fact.number);
      enc.put_process_id(fact.subject);
      enc.put_u8(encode_knowledge(fact.knowledge));
      return;
    }
    case StateDeltaKind::kEraseAmbiguous: {
      const auto& numbers = std::get<std::vector<SessionNumber>>(operand);
      enc.put_varint(numbers.size());
      for (SessionNumber n : numbers) enc.put_i64(n);
      return;
    }
    case StateDeltaKind::kParticipants:
      std::get<ParticipantTracker>(operand).encode(enc);
      return;
  }
  ensure(false, "unknown state-delta kind");
}

StateDelta StateDelta::decode(Decoder& dec) {
  const std::uint8_t kind = dec.get_u8();
  if (kind < static_cast<std::uint8_t>(StateDeltaKind::kAttempt) ||
      kind > static_cast<std::uint8_t>(StateDeltaKind::kParticipants)) {
    throw CodecError("unknown state-delta kind");
  }
  switch (static_cast<StateDeltaKind>(kind)) {
    case StateDeltaKind::kAttempt: {
      Session session = Session::decode(dec);
      return attempt(std::move(session), dec.get_varint());
    }
    case StateDeltaKind::kForm:
      return form(Session::decode(dec));
    case StateDeltaKind::kAdopt:
      return adopt(Session::decode(dec));
    case StateDeltaKind::kKnowledge: {
      const SessionNumber number = dec.get_i64();
      const ProcessId subject = dec.get_process_id();
      return learned(number, subject, decode_knowledge(dec.get_u8()));
    }
    case StateDeltaKind::kEraseAmbiguous: {
      const std::uint64_t n = dec.get_varint();
      if (n > dec.remaining()) {
        throw CodecError("erase-delta count prefix too large");
      }
      std::vector<SessionNumber> numbers;
      numbers.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        numbers.push_back(dec.get_i64());
        // apply searches the list, so only one order is valid.
        if (i != 0 && numbers[i] <= numbers[i - 1]) {
          throw CodecError("erased session numbers not ascending");
        }
      }
      return erase_ambiguous(std::move(numbers));
    }
    case StateDeltaKind::kParticipants:
      return merge_participants(ParticipantTracker::decode(dec));
  }
  throw CodecError("unknown state-delta kind");
}

namespace {
// Leading byte of a checkpoint record. Deliberately far from the
// ProtocolState format version (2): recovery dispatches on the first
// byte to also read legacy raw snapshots (and snapshot-mode writes).
constexpr std::uint8_t kCheckpointMagic = 0xC5;
}  // namespace

void encode_checkpoint(Encoder& enc, const ProtocolState& state,
                       std::uint64_t covers_lsn) {
  enc.put_u8(kCheckpointMagic);
  enc.put_varint(covers_lsn);
  state.encode(enc);
}

CheckpointRecord decode_checkpoint(const std::vector<std::uint8_t>& bytes) {
  CheckpointRecord record;
  if (!bytes.empty() && bytes[0] == kCheckpointMagic) {
    Decoder dec(bytes);
    (void)dec.get_u8();
    record.covers_lsn = dec.get_varint();
    record.state = ProtocolState::decode(dec);
  } else {
    Decoder dec(bytes);
    record.state = ProtocolState::decode(dec);
    record.covers_lsn = 0;
  }
  return record;
}

std::string ProtocolState::to_string() const {
  std::string out = "sn=" + std::to_string(session_number) +
                    " lp=" + dynvote::to_string(last_primary) + " amb=[";
  for (std::size_t i = 0; i < ambiguous.size(); ++i) {
    if (i != 0) out += " ";
    out += ambiguous[i].to_string();
  }
  out += "] lf=" + last_formed.to_string() + " " + participants.to_string();
  if (!has_history) out += " (no-history)";
  return out;
}

}  // namespace dynvote
