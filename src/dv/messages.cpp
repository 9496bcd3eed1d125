#include "dv/messages.hpp"

namespace dynvote {

void InfoPayload::encode(Encoder& enc) const {
  enc.put_i64(session_number);
  enc.put_bool(has_history);
  encode_optional_session(enc, last_primary);
  enc.put_varint(ambiguous.size());
  for (const Session& s : ambiguous) s.encode(enc);
  last_formed.encode(enc);
  participants.encode(enc);
}

std::size_t InfoPayload::encoded_size() const {
  if (cached_size_ == 0) {
    // One buffer per thread, kept across calls: a fresh Encoder would
    // grow its buffer from empty, allocating several times per info.
    thread_local Encoder scratch;
    scratch.clear();
    encode(scratch);
    cached_size_ = scratch.size();
  }
  return cached_size_;
}

std::size_t AttemptPayload::encoded_size() const {
  return 8;  // one put_i64(session_number)
}

std::size_t RoundPayload::encoded_size() const {
  // A phase tag and a session stamp: the resolution rounds of the
  // three-phase baseline carry only votes/acknowledgements.
  return 9;
}

}  // namespace dynvote
