// Unit tests: sessions, ambiguous-session records, protocol state
// transitions and persistence round-trips.
#include <gtest/gtest.h>

#include <utility>

#include "dv/messages.hpp"
#include "dv/session.hpp"
#include "dv/state.hpp"
#include "state_printers.hpp"
#include "util/ensure.hpp"

namespace dynvote {
namespace {

const ProcessSet kCore = ProcessSet::range(5);

TEST(Session, IdentityIsMembershipPlusNumber) {
  const Session a{ProcessSet::of({0, 1}), 3};
  const Session b{ProcessSet::of({0, 1}), 3};
  const Session c{ProcessSet::of({0, 1}), 4};
  const Session d{ProcessSet::of({0, 2}), 3};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(Session, ToStringShowsBoth) {
  EXPECT_EQ((Session{ProcessSet::of({0, 1}), 7}).to_string(), "({p0,p1},7)");
}

TEST(Session, CodecRoundTrip) {
  const Session s{ProcessSet::of({2, 4, 6}), 42};
  Encoder enc;
  s.encode(enc);
  Decoder dec(enc.bytes());
  EXPECT_EQ(Session::decode(dec), s);
}

TEST(AmbiguousSession, FreshAttemptKnowsOnlySelf) {
  const AmbiguousSession a(Session{ProcessSet::of({0, 1, 2}), 5}, ProcessId(1));
  EXPECT_EQ(a.knowledge_about(ProcessId(1)), FormedKnowledge::kNotFormed);
  EXPECT_EQ(a.knowledge_about(ProcessId(0)), FormedKnowledge::kUnknown);
  EXPECT_EQ(a.knowledge_about(ProcessId(2)), FormedKnowledge::kUnknown);
  EXPECT_FALSE(a.known_unformed_by_all());
  EXPECT_FALSE(a.known_formed_by_someone());
}

TEST(AmbiguousSession, KnowledgeUpdatesDriveResolutionPredicates) {
  AmbiguousSession a(Session{ProcessSet::of({0, 1}), 5}, ProcessId(0));
  a.set_knowledge(ProcessId(1), FormedKnowledge::kNotFormed);
  EXPECT_TRUE(a.known_unformed_by_all());
  a.set_knowledge(ProcessId(1), FormedKnowledge::kFormed);
  EXPECT_TRUE(a.known_formed_by_someone());
  EXPECT_FALSE(a.known_unformed_by_all());
}

TEST(AmbiguousSession, CodecRoundTripPreservesKnowledge) {
  AmbiguousSession a(Session{ProcessSet::of({0, 1, 2}), 9}, ProcessId(2));
  a.set_knowledge(ProcessId(0), FormedKnowledge::kFormed);
  Encoder enc;
  a.encode(enc);
  Decoder dec(enc.bytes());
  const AmbiguousSession back = AmbiguousSession::decode(dec);
  EXPECT_EQ(back, a);
  EXPECT_EQ(back.knowledge_about(ProcessId(0)), FormedKnowledge::kFormed);
}

TEST(ProtocolState, InitialCoreMemberKnowsF0) {
  const auto state = ProtocolState::initial(kCore, ProcessId(2));
  EXPECT_EQ(state.session_number, 0);
  ASSERT_TRUE(state.last_primary.has_value());
  EXPECT_EQ(state.last_primary->members, kCore);
  EXPECT_EQ(state.last_primary->number, 0);
  EXPECT_EQ(state.last_primary_number(), 0);
  EXPECT_TRUE(state.ambiguous.empty());
  EXPECT_EQ(state.last_formed.size(), 5u);
  EXPECT_TRUE(state.has_history);
}

TEST(ProtocolState, PrintsItsFieldsInTestFailures) {
  const auto state = ProtocolState::initial(kCore, ProcessId(2));
  EXPECT_EQ(::testing::PrintToString(state), state.to_string());
}

TEST(ProtocolState, InitialJoinerKnowsInfinity) {
  const auto state = ProtocolState::initial(kCore, ProcessId(9));
  EXPECT_FALSE(state.last_primary.has_value());
  EXPECT_EQ(state.last_primary_number(), kNoSessionNumber);
  EXPECT_TRUE(state.last_formed.empty());
  EXPECT_EQ(state.participants.pending(), ProcessSet::of({9}));
}

TEST(ProtocolState, DiskLossStateHasNoHistory) {
  const auto state = ProtocolState::after_disk_loss(ProcessId(3));
  EXPECT_FALSE(state.last_primary.has_value());
  EXPECT_FALSE(state.has_history);
}

TEST(ProtocolState, RecordAttemptKeepsAscendingOrder) {
  auto state = ProtocolState::initial(kCore, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 1, 2}), 1}, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 1}), 2}, ProcessId(0));
  ASSERT_EQ(state.ambiguous.size(), 2u);
  EXPECT_EQ(state.ambiguous[0].session.number, 1);
  EXPECT_EQ(state.ambiguous[1].session.number, 2);
}

TEST(ProtocolState, RecordAttemptOverwritesSameMembership) {
  // "If Ambiguous_Sessions already contains an attempt with the same
  // membership, overwrite it" (paper figure 1 step 2).
  auto state = ProtocolState::initial(kCore, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 1}), 1}, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 2}), 2}, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 1}), 3}, ProcessId(0));
  ASSERT_EQ(state.ambiguous.size(), 2u);
  EXPECT_EQ(state.ambiguous[0].session, (Session{ProcessSet::of({0, 2}), 2}));
  EXPECT_EQ(state.ambiguous[1].session, (Session{ProcessSet::of({0, 1}), 3}));
}

TEST(ProtocolState, RecordAttemptRequiresMembership) {
  auto state = ProtocolState::initial(kCore, ProcessId(0));
  EXPECT_THROW(
      state.record_attempt(Session{ProcessSet::of({1, 2}), 1}, ProcessId(0)),
      InvariantViolation);
}

TEST(ProtocolState, ApplyFormClearsAmbiguityAndUpdatesLastFormed) {
  auto state = ProtocolState::initial(kCore, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 1, 2}), 1}, ProcessId(0));
  const Session formed{ProcessSet::of({0, 1, 2}), 1};
  state.apply_form(formed);
  EXPECT_EQ(state.last_primary, formed);
  EXPECT_TRUE(state.ambiguous.empty());
  EXPECT_EQ(*state.last_formed.find(ProcessId(1)), formed);
  EXPECT_EQ(*state.last_formed.find(ProcessId(2)), formed);
  // Members not in the formed session keep their old entry.
  EXPECT_EQ(state.last_formed.find(ProcessId(4))->number, 0);
}

TEST(ProtocolState, AdoptFormedSupersedesOlderAmbiguity) {
  auto state = ProtocolState::initial(kCore, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 1, 2}), 1}, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 3}), 2}, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 4}), 3}, ProcessId(0));
  const Session adopted{ProcessSet::of({0, 3}), 2};
  state.adopt_formed(adopted);
  EXPECT_EQ(state.last_primary, adopted);
  ASSERT_EQ(state.ambiguous.size(), 1u);  // only the number-3 attempt remains
  EXPECT_EQ(state.ambiguous[0].session.number, 3);
  EXPECT_EQ(*state.last_formed.find(ProcessId(3)), adopted);
}

TEST(ProtocolState, AdoptOlderThanLastPrimaryRejected) {
  auto state = ProtocolState::initial(kCore, ProcessId(0));
  EXPECT_THROW(state.adopt_formed(Session{kCore, 0}), InvariantViolation);
}

TEST(ProtocolState, CodecRoundTripFullState) {
  auto state = ProtocolState::initial(kCore, ProcessId(0));
  state.session_number = 17;
  state.record_attempt(Session{ProcessSet::of({0, 1, 2}), 18}, ProcessId(0));
  state.ambiguous[0].set_knowledge(ProcessId(1), FormedKnowledge::kFormed);
  Encoder enc;
  state.encode(enc);
  Decoder dec(enc.bytes());
  EXPECT_EQ(ProtocolState::decode(dec), state);
}

TEST(ProtocolState, CodecRoundTripInfinityState) {
  auto state = ProtocolState::after_disk_loss(ProcessId(6));
  Encoder enc;
  state.encode(enc);
  Decoder dec(enc.bytes());
  EXPECT_EQ(ProtocolState::decode(dec), state);
}

TEST(ProtocolState, DecodeRejectsAmbiguousSessionsOutOfOrder) {
  // find_ambiguous binary-searches the list by session number, so decode
  // accepts only the strictly ascending order record_attempt keeps.
  auto state = ProtocolState::initial(kCore, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 1, 2}), 1}, ProcessId(0));
  state.record_attempt(Session{ProcessSet::of({0, 1}), 2}, ProcessId(0));
  EXPECT_EQ(state.find_ambiguous(2), &state.ambiguous[1]);
  EXPECT_EQ(state.find_ambiguous(3), nullptr);

  auto decode = [](const ProtocolState& s) {
    Encoder enc;
    s.encode(enc);
    Decoder dec(enc.bytes());
    return ProtocolState::decode(dec);
  };
  std::swap(state.ambiguous[0], state.ambiguous[1]);
  EXPECT_THROW(decode(state), CodecError);
  state.ambiguous[0].session.number = 1;  // a repeated number
  EXPECT_THROW(decode(state), CodecError);
}

TEST(ProtocolState, DecodeRejectsUnknownFormatVersion) {
  const auto state = ProtocolState::initial(kCore, ProcessId(0));
  Encoder enc;
  state.encode(enc);
  std::vector<std::uint8_t> bytes = enc.bytes();
  bytes[0] = 0xEE;  // the version byte leads the record
  Decoder dec(bytes);
  EXPECT_THROW((void)ProtocolState::decode(dec), CodecError);
}

TEST(InfoPayload, EncodedSizeGrowsWithAmbiguity) {
  InfoPayload small;
  small.last_primary = Session{kCore, 0};
  InfoPayload big = small;
  for (int i = 1; i <= 8; ++i) {
    big.ambiguous.push_back(Session{kCore, i});
  }
  EXPECT_GT(big.encoded_size(), small.encoded_size());
  EXPECT_EQ(big.phase(), 0);
  EXPECT_EQ(small.type_name(), "dv.info");
}

TEST(AttemptPayload, PhaseAndSize) {
  AttemptPayload attempt;
  attempt.session_number = 5;
  EXPECT_EQ(attempt.phase(), 1);
  EXPECT_EQ(attempt.encoded_size(), 8u);
}

TEST(RoundPayload, CarriesItsPhase) {
  const RoundPayload r(3, "3pc.decide");
  EXPECT_EQ(r.phase(), 3);
  EXPECT_EQ(r.type_name(), "3pc.decide");
  EXPECT_GT(r.encoded_size(), 0u);
}

}  // namespace
}  // namespace dynvote
