#include "util/codec.hpp"

namespace dynvote {

void Encoder::put_u8(std::uint8_t v) { buffer_.push_back(v); }

void Encoder::put_u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Encoder::put_u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Encoder::put_i64(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void Encoder::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void Encoder::put_bool(bool v) { put_u8(v ? 1 : 0); }

void Encoder::put_string(std::string_view s) {
  put_varint(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void Encoder::put_process_id(ProcessId p) { put_varint(p.value()); }

void Encoder::put_process_set(const ProcessSet& s) {
  // One byte per id below 128 plus the count prefix; reserving up front
  // spares the byte-at-a-time growth for the common small-id sets.
  buffer_.reserve(buffer_.size() + s.size() + 2);
  put_varint(s.size());
  for (ProcessId p : s) put_process_id(p);
}

void Decoder::need(std::size_t n) const {
  if (size_ - pos_ < n) throw CodecError("decode past end of buffer");
}

std::uint8_t Decoder::get_u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Decoder::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
  }
  return v;
}

std::uint64_t Decoder::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
  }
  return v;
}

std::int64_t Decoder::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}

std::uint64_t Decoder::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    std::uint8_t byte = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7F) > 1)) {
      throw CodecError("varint overflow");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

bool Decoder::get_bool() {
  std::uint8_t b = get_u8();
  if (b > 1) throw CodecError("invalid bool byte");
  return b == 1;
}

std::string Decoder::get_string() {
  std::uint64_t n = get_varint();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

ProcessId Decoder::get_process_id() {
  std::uint64_t v = get_varint();
  if (v >= kProcessIdLimit) throw CodecError("process id out of range");
  return ProcessId(static_cast<std::uint32_t>(v));
}

ProcessSet Decoder::get_process_set() {
  std::uint64_t n = get_varint();
  if (n > remaining()) throw CodecError("process set length prefix too large");
  // put_process_set writes ascending ids, so a set has one encoding: a
  // duplicate or descending id is malformed rather than normalized.
  ProcessSet s;
  std::optional<ProcessId> previous;
  for (std::uint64_t i = 0; i < n; ++i) {
    const ProcessId p = get_process_id();
    if (previous && !(*previous < p)) {
      throw CodecError("process set ids not strictly ascending");
    }
    s.insert(p);
    previous = p;
  }
  return s;
}

}  // namespace dynvote
