// Unit tests: the binary codec — round trips, bounds checking, malformed
// input rejection.
#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

#include "util/codec.hpp"

namespace dynvote {
namespace {

TEST(Codec, RoundTripsScalars) {
  Encoder enc;
  enc.put_u8(0xAB);
  enc.put_u32(0xDEADBEEF);
  enc.put_u64(0x0123456789ABCDEFULL);
  enc.put_i64(-42);
  enc.put_bool(true);
  enc.put_bool(false);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u8(), 0xAB);
  EXPECT_EQ(dec.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(dec.get_i64(), -42);
  EXPECT_TRUE(dec.get_bool());
  EXPECT_FALSE(dec.get_bool());
  EXPECT_TRUE(dec.exhausted());
}

TEST(Codec, RoundTripsVarints) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16383,
                                  16384,
                                  std::numeric_limits<std::uint64_t>::max()};
  Encoder enc;
  for (auto v : values) enc.put_varint(v);
  Decoder dec(enc.bytes());
  for (auto v : values) EXPECT_EQ(dec.get_varint(), v);
  EXPECT_TRUE(dec.exhausted());
}

TEST(Codec, VarintCompactness) {
  Encoder enc;
  enc.put_varint(5);
  EXPECT_EQ(enc.size(), 1u);
  Encoder enc2;
  enc2.put_varint(200);
  EXPECT_EQ(enc2.size(), 2u);
}

TEST(Codec, RoundTripsStrings) {
  Encoder enc;
  enc.put_string("");
  enc.put_string("hello");
  enc.put_string(std::string(1000, 'x'));
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_string(), "");
  EXPECT_EQ(dec.get_string(), "hello");
  EXPECT_EQ(dec.get_string(), std::string(1000, 'x'));
}

TEST(Codec, RoundTripsProcessSets) {
  Encoder enc;
  enc.put_process_set(ProcessSet::of({5, 1, 9}));
  enc.put_process_set(ProcessSet{});
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_process_set(), ProcessSet::of({1, 5, 9}));
  EXPECT_EQ(dec.get_process_set(), ProcessSet{});
}

TEST(Codec, RoundTripsOptionals) {
  Encoder enc;
  std::optional<std::uint64_t> present = 99, absent;
  enc.put_optional(present, [&](std::uint64_t v) { enc.put_u64(v); });
  enc.put_optional(absent, [&](std::uint64_t v) { enc.put_u64(v); });
  Decoder dec(enc.bytes());
  auto a = dec.get_optional<std::uint64_t>([&] { return dec.get_u64(); });
  auto b = dec.get_optional<std::uint64_t>([&] { return dec.get_u64(); });
  EXPECT_EQ(a, 99u);
  EXPECT_EQ(b, std::nullopt);
}

TEST(Codec, ThrowsOnTruncatedInput) {
  Encoder enc;
  enc.put_u64(7);
  std::vector<std::uint8_t> bytes = enc.bytes();
  bytes.pop_back();
  Decoder dec(bytes);
  EXPECT_THROW(dec.get_u64(), CodecError);
}

TEST(Codec, ThrowsOnBadBool) {
  const std::vector<std::uint8_t> bytes{2};
  Decoder dec(bytes);
  EXPECT_THROW(dec.get_bool(), CodecError);
}

TEST(Codec, ThrowsOnOversizedLengthPrefix) {
  // A set claiming 1000 entries with a 2-byte body.
  Encoder enc;
  enc.put_varint(1000);
  enc.put_u8(1);
  enc.put_u8(2);
  Decoder dec(enc.bytes());
  EXPECT_THROW(dec.get_process_set(), CodecError);
}

/// Process-set bytes holding `ids` in the given order, as a peer or
/// stable storage might hand them over.
std::vector<std::uint8_t> raw_process_set(
    std::initializer_list<std::uint32_t> ids) {
  Encoder enc;
  enc.put_varint(ids.size());
  for (const std::uint32_t id : ids) enc.put_process_id(ProcessId(id));
  return enc.bytes();
}

TEST(Codec, ThrowsOnDuplicateProcessSetIds) {
  // [2, p1, p1] would decode to {p1}, which re-encodes as [1, p1]: a set
  // has one encoding, so the duplicate is malformed.
  for (const std::uint32_t id : {1u, 300u}) {
    const std::vector<std::uint8_t> bytes = raw_process_set({id, id});
    Decoder dec(bytes);
    EXPECT_THROW(dec.get_process_set(), CodecError) << id;
  }
}

TEST(Codec, ThrowsOnDescendingProcessSetIds) {
  // [2, p3, p1] would decode to {p1,p3}, which re-encodes as [2, p1, p3].
  for (const auto& [high, low] : {std::pair{3u, 1u}, std::pair{300u, 255u}}) {
    const std::vector<std::uint8_t> bytes = raw_process_set({high, low});
    Decoder dec(bytes);
    EXPECT_THROW(dec.get_process_set(), CodecError) << high << " " << low;
  }
  // The ascending order of the same ids decodes and re-encodes exactly.
  const std::vector<std::uint8_t> bytes = raw_process_set({1, 255, 300});
  Decoder dec(bytes);
  const ProcessSet s = dec.get_process_set();
  EXPECT_TRUE(dec.exhausted());
  Encoder enc;
  enc.put_process_set(s);
  EXPECT_EQ(enc.bytes(), bytes);
}

TEST(Codec, ThrowsOnVarintOverflow) {
  // 11 continuation bytes exceed 64 bits.
  const std::vector<std::uint8_t> bytes(11, 0xFF);
  Decoder dec(bytes);
  EXPECT_THROW(dec.get_varint(), CodecError);
}

TEST(Codec, ThrowsOnProcessIdOutOfRange) {
  // Past 32 bits, and the first id past the process-id range.
  for (const std::uint64_t raw :
       {std::uint64_t{0x1'0000'0000ULL}, std::uint64_t{kProcessIdLimit}}) {
    Encoder enc;
    enc.put_varint(raw);
    Decoder dec(enc.bytes());
    EXPECT_THROW(dec.get_process_id(), CodecError) << raw;
  }
  Encoder enc;
  enc.put_varint(kProcessIdLimit - 1);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_process_id(), ProcessId(kProcessIdLimit - 1));
}

TEST(Codec, RemainingTracksPosition) {
  Encoder enc;
  enc.put_u32(1);
  enc.put_u32(2);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.remaining(), 8u);
  dec.get_u32();
  EXPECT_EQ(dec.remaining(), 4u);
}

}  // namespace
}  // namespace dynvote
