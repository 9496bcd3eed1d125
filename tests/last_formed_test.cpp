// Differential and codec tests for dv::LastFormed (dv/last_formed.hpp).
//
// Seeded random assign sequences are checked after every step against
// the per-member map LastFormed replaced (tests/last_formed_reference.hpp):
// lookups, the view restriction an info carries, the codec round trip,
// and the canonical form that makes two histories with the same final
// mapping compare equal and encode to the same bytes. Hand-encoded
// inputs cover each malformed-input rule of LastFormed::decode, and a
// version-1 ProtocolState (one session copy per entry) is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "dv/last_formed.hpp"
#include "dv/state.hpp"
#include "last_formed_reference.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

using reference::LastFormedMap;

/// A random session over ids [0, n), half of them small. Numbers come
/// from a short range, so one number names several memberships, and
/// earlier sessions recur, so assign meets sessions already in the table.
Session random_session(Rng& rng, std::uint32_t n,
                       std::vector<Session>& seen) {
  if (!seen.empty() && rng.next_bool(0.3)) {
    return seen[rng.next_below(seen.size())];
  }
  const std::uint64_t cap =
      rng.next_bool(0.5) ? std::min<std::uint64_t>(n, 8) : n;
  const std::uint64_t size = 1 + rng.next_below(cap);
  ProcessSet members;
  while (members.size() < size) {
    members.insert(ProcessId(static_cast<std::uint32_t>(rng.next_below(n))));
  }
  seen.push_back(
      Session{members, static_cast<SessionNumber>(rng.next_below(6))});
  return seen.back();
}

/// A random view over ids [0, n + 3): the ids past n never have an entry.
ProcessSet random_view(Rng& rng, std::uint32_t n) {
  ProcessSet view;
  for (std::uint32_t q = 0; q < n + 3; ++q) {
    if (rng.next_bool(0.3)) view.insert(ProcessId(q));
  }
  return view;
}

LastFormedMap as_map(const LastFormed& lf) {
  LastFormedMap out;
  for (const LastFormed::Entry& e : lf) out.emplace(e.id, lf.session(e));
  return out;
}

std::vector<std::uint8_t> bytes_of(const LastFormed& lf) {
  Encoder enc;
  lf.encode(enc);
  return std::move(enc).take();
}

/// A different history with the same final mapping: first a session
/// over mapped ids that later steps overwrite entirely, then each
/// session still referenced, once, in the order of its last assignment.
LastFormed replay(const std::vector<Session>& history,
                  const LastFormedMap& ref, Rng& rng) {
  std::vector<Session> order;
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    const bool referenced =
        std::any_of(ref.begin(), ref.end(),
                    [&](const auto& entry) { return entry.second == *it; });
    if (referenced &&
        std::find(order.begin(), order.end(), *it) == order.end()) {
      order.push_back(*it);
    }
  }
  std::reverse(order.begin(), order.end());

  LastFormed out;
  ProcessSet overwritten;
  for (const auto& [q, s] : ref) {
    if (rng.next_bool(0.5)) overwritten.insert(q);
  }
  if (!overwritten.empty()) out.assign(Session{overwritten, 1000});
  for (const Session& s : order) out.assign(s);
  return out;
}

void check_against_map(std::uint32_t n, std::uint64_t sequences) {
  constexpr int kSteps = 10;
  for (std::uint64_t seed = 1; seed <= sequences; ++seed) {
    Rng rng(seed * 7919 + n);
    LastFormed lf;
    LastFormedMap ref;
    std::vector<Session> history;
    std::vector<Session> seen;
    for (int step = 0; step < kSteps; ++step) {
      const Session s = random_session(rng, n, seen);
      lf.assign(s);
      reference::assign(ref, s);
      history.push_back(s);
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                   std::to_string(seed) + " step=" + std::to_string(step));

      ASSERT_EQ(lf.size(), ref.size());
      ASSERT_EQ(as_map(lf), ref);
      for (std::uint32_t raw = 0; raw < n + 3; ++raw) {
        const Session* got = lf.find(ProcessId(raw));
        const auto want = ref.find(ProcessId(raw));
        ASSERT_EQ(got != nullptr, want != ref.end()) << "p" << raw;
        if (got != nullptr) {
          ASSERT_EQ(*got, want->second) << "p" << raw;
        }
      }

      const ProcessSet view = random_view(rng, n);
      const LastFormed restricted = lf.restricted_to(view);
      ASSERT_EQ(as_map(restricted), reference::restricted_to(ref, view));

      // Decode accepts only the canonical form, so each round trip also
      // checks that assign and restricted_to produce it.
      for (const LastFormed* value : {&std::as_const(lf), &restricted}) {
        const std::vector<std::uint8_t> bytes = bytes_of(*value);
        Decoder dec(bytes);
        ASSERT_EQ(LastFormed::decode(dec), *value);
        ASSERT_TRUE(dec.exhausted());
      }

      const LastFormed other = replay(history, ref, rng);
      ASSERT_EQ(other, lf);
      ASSERT_EQ(bytes_of(other), bytes_of(lf));
    }
  }
}

TEST(LastFormed, MatchesTheMapItReplacesAtN5) { check_against_map(5, 300); }

TEST(LastFormed, MatchesTheMapItReplacesAtN64) { check_against_map(64, 300); }

TEST(LastFormed, MatchesTheMapItReplacesPastTheInlineIdLimit) {
  // n = 300 puts ids past ProcessSet::kSmallIdLimit (256) into sessions
  // and views.
  ASSERT_GT(300u, ProcessSet::kSmallIdLimit);
  check_against_map(300, 300);
}

TEST(LastFormed, StoresEachSessionOnceAndDropsUnreferencedOnes) {
  const Session w0{ProcessSet::range(5), 0};
  const Session s1{ProcessSet::of({0, 1, 2}), 1};
  const Session s2{ProcessSet::of({3, 4}), 2};
  LastFormed lf;
  lf.assign(w0);
  EXPECT_EQ(lf.to_string(),
            "[({p0,p1,p2,p3,p4},0)]{p0:0,p1:0,p2:0,p3:0,p4:0}");
  lf.assign(s1);
  // The table ascends under Session's <=>: {p0,p1,p2} sorts first.
  EXPECT_EQ(lf.to_string(),
            "[({p0,p1,p2},1) ({p0,p1,p2,p3,p4},0)]"
            "{p0:0,p1:0,p2:0,p3:1,p4:1}");
  lf.assign(s2);
  // W0 lost its last member: no entry uses it any more.
  EXPECT_EQ(lf.to_string(),
            "[({p0,p1,p2},1) ({p3,p4},2)]{p0:0,p1:0,p2:0,p3:1,p4:1}");
  EXPECT_EQ(*lf.find(ProcessId(4)), s2);
  EXPECT_EQ(lf.find(ProcessId(5)), nullptr);
}

TEST(LastFormed, EmptyEncodesAsOneZeroByte) {
  EXPECT_EQ(bytes_of(LastFormed{}), (std::vector<std::uint8_t>{0}));
  const std::vector<std::uint8_t> zero{0};
  Decoder dec(zero);
  EXPECT_TRUE(LastFormed::decode(dec).empty());
}

// ---- decode rejections -----------------------------------------------------

const Session kA{ProcessSet::of({0, 1}), 3};
const Session kB{ProcessSet::of({0, 2}), 4};  // kA < kB

/// Hand-encoded Last_Formed: entry count, table size, the sessions, then
/// the (id, index) pairs.
std::vector<std::uint8_t> encode_raw(
    const std::vector<Session>& table,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& entries) {
  Encoder enc;
  enc.put_varint(entries.size());
  enc.put_varint(table.size());
  for (const Session& s : table) s.encode(enc);
  for (const auto& [id, index] : entries) {
    enc.put_process_id(ProcessId(id));
    enc.put_varint(index);
  }
  return std::move(enc).take();
}

void expect_rejected(const std::vector<std::uint8_t>& bytes) {
  Decoder dec(bytes);
  EXPECT_THROW((void)LastFormed::decode(dec), CodecError);
}

TEST(LastFormed, HandEncodedCanonicalFormDecodes) {
  // The baseline the rejection cases below each break in one way.
  const std::vector<std::uint8_t> bytes =
      encode_raw({kA, kB}, {{0, 1}, {1, 0}, {2, 1}});
  Decoder dec(bytes);
  LastFormed want;
  want.assign(kA);
  want.assign(kB);
  EXPECT_EQ(LastFormed::decode(dec), want);
  EXPECT_TRUE(dec.exhausted());
  EXPECT_EQ(bytes, bytes_of(want));
}

TEST(LastFormed, DecodeRejectsCountPrefixesPastTheBuffer) {
  Encoder entries;
  entries.put_varint(200);
  entries.put_varint(1);
  kA.encode(entries);
  expect_rejected(entries.bytes());

  Encoder sessions;
  sessions.put_varint(1);
  sessions.put_varint(200);
  expect_rejected(sessions.bytes());
}

TEST(LastFormed, DecodeRejectsAnIndexPastTheTable) {
  expect_rejected(encode_raw({kA}, {{0, 1}}));
  expect_rejected(encode_raw({}, {{0, 0}}));
}

TEST(LastFormed, DecodeRejectsIdsThatDoNotStrictlyAscend) {
  expect_rejected(encode_raw({kA}, {{1, 0}, {0, 0}}));
  expect_rejected(encode_raw({kA}, {{0, 0}, {0, 0}}));
}

TEST(LastFormed, DecodeRejectsATableThatDoesNotStrictlyAscend) {
  expect_rejected(encode_raw({kB, kA}, {{0, 0}, {1, 1}}));
  expect_rejected(encode_raw({kA, kA}, {{0, 0}, {1, 1}}));
}

TEST(LastFormed, DecodeRejectsASessionNoEntryReferences) {
  expect_rejected(encode_raw({kA, kB}, {{0, 0}}));
}

TEST(LastFormed, DecodeRejectsVersion1ProtocolState) {
  // The version-1 layout: one (id, session) copy per Last_Formed entry.
  const ProcessSet core = ProcessSet::range(5);
  const Session w0{core, 0};
  Encoder v1;
  v1.put_u8(1);
  v1.put_i64(0);
  encode_optional_session(v1, w0);
  v1.put_varint(0);
  v1.put_varint(core.size());
  for (ProcessId q : core) {
    v1.put_process_id(q);
    w0.encode(v1);
  }
  ParticipantTracker::initial(core, ProcessId(0)).encode(v1);
  v1.put_bool(true);
  Decoder dec(v1.bytes());
  EXPECT_THROW((void)ProtocolState::decode(dec), CodecError);

  Encoder framed;  // the same bytes behind the checkpoint framing
  framed.put_u8(0xC5);
  framed.put_varint(0);
  for (std::uint8_t b : v1.bytes()) framed.put_u8(b);
  EXPECT_THROW((void)decode_checkpoint(framed.bytes()), CodecError);

  Encoder current;
  ProtocolState::initial(core, ProcessId(0)).encode(current);
  EXPECT_EQ(current.bytes()[0], 2);
}

}  // namespace
}  // namespace dynvote
