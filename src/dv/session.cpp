#include "dv/session.hpp"

#include "util/ensure.hpp"

namespace dynvote {

std::string Session::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Session::append_to(std::string& out) const {
  out += '(';
  members.append_to(out);
  out += ',';
  append_decimal(out, number);
  out += ')';
}

void Session::encode(Encoder& enc) const {
  enc.put_process_set(members);
  enc.put_i64(number);
}

Session Session::decode(Decoder& dec) {
  Session s;
  s.members = dec.get_process_set();
  s.number = dec.get_i64();
  return s;
}

AmbiguousSession::AmbiguousSession(Session s, ProcessId self)
    : session(std::move(s)),
      knowledge(session.members.size(), FormedKnowledge::kUnknown) {
  set_knowledge(self, FormedKnowledge::kNotFormed);
}

FormedKnowledge AmbiguousSession::knowledge_about(ProcessId q) const {
  return knowledge.at(session.members.index_of(q));
}

void AmbiguousSession::set_knowledge(ProcessId q, FormedKnowledge k) {
  knowledge.at(session.members.index_of(q)) = k;
}

bool AmbiguousSession::known_unformed_by_all() const {
  for (FormedKnowledge k : knowledge) {
    if (k != FormedKnowledge::kNotFormed) return false;
  }
  return true;
}

bool AmbiguousSession::known_formed_by_someone() const {
  for (FormedKnowledge k : knowledge) {
    if (k == FormedKnowledge::kFormed) return true;
  }
  return false;
}

std::string AmbiguousSession::to_string() const {
  std::string out = session.to_string() + "[";
  for (std::size_t i = 0; i < knowledge.size(); ++i) {
    if (i != 0) out += ",";
    switch (knowledge[i]) {
      case FormedKnowledge::kFormed: out += "+"; break;
      case FormedKnowledge::kNotFormed: out += "-"; break;
      case FormedKnowledge::kUnknown: out += "?"; break;
    }
  }
  return out + "]";
}

void AmbiguousSession::encode(Encoder& enc) const {
  session.encode(enc);
  enc.put_varint(knowledge.size());
  for (FormedKnowledge k : knowledge) {
    enc.put_u8(static_cast<std::uint8_t>(static_cast<std::int8_t>(k) + 1));
  }
}

AmbiguousSession AmbiguousSession::decode(Decoder& dec) {
  AmbiguousSession a;
  a.session = Session::decode(dec);
  const std::uint64_t n = dec.get_varint();
  if (n != a.session.members.size()) {
    throw CodecError("knowledge array size mismatch");
  }
  a.knowledge.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint8_t raw = dec.get_u8();
    if (raw > 2) throw CodecError("bad knowledge value");
    a.knowledge.push_back(
        static_cast<FormedKnowledge>(static_cast<std::int8_t>(raw) - 1));
  }
  return a;
}

void encode_optional_session(Encoder& enc, const std::optional<Session>& s) {
  enc.put_bool(s.has_value());
  if (s) s->encode(enc);
}

std::optional<Session> decode_optional_session(Decoder& dec) {
  if (!dec.get_bool()) return std::nullopt;
  return Session::decode(dec);
}

std::string to_string(const std::optional<Session>& s) {
  return s ? s->to_string() : "(∞,-1)";
}

}  // namespace dynvote
