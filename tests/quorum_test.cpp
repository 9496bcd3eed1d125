// Unit tests: the Sub_Quorum predicate (paper 4.1 / 6), linear order
// tie-breaks, Min_Quorum floor, the unconditional clause, and the
// participant tracker of section 6 — including the paper's stated
// predicate properties as parameterized sweeps.
#include <gtest/gtest.h>

#include "quorum/linear_order.hpp"
#include "quorum/participants.hpp"
#include "quorum/sub_quorum.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

const ProcessSet kCore5 = ProcessSet::range(5);

TEST(LinearOrder, TieBreakFavorsHalfWithTopMember) {
  const auto S = ProcessSet::of({0, 1, 2, 3});
  EXPECT_TRUE(tie_break_favors(S, ProcessSet::of({2, 3})));
  EXPECT_FALSE(tie_break_favors(S, ProcessSet::of({0, 1})));
  EXPECT_TRUE(tie_break_favors(S, ProcessSet::of({3, 9})));
  EXPECT_FALSE(tie_break_favors(ProcessSet{}, ProcessSet::of({1})));
}

TEST(SubQuorum, MajorityOfPreviousQuorumSuffices) {
  const QuorumCalculus calc(kCore5, 1);
  EXPECT_TRUE(calc.sub_quorum(ProcessSet::of({0, 1, 2}), ProcessSet::of({0, 1})));
  EXPECT_TRUE(calc.sub_quorum(kCore5, ProcessSet::of({0, 1, 2})));
  EXPECT_FALSE(calc.sub_quorum(kCore5, ProcessSet::of({0, 1})));
}

TEST(SubQuorum, ExactHalfNeedsTopRankedMember) {
  const QuorumCalculus calc(kCore5, 1);
  const auto S = ProcessSet::of({0, 1, 2, 3});
  EXPECT_TRUE(calc.sub_quorum(S, ProcessSet::of({2, 3})));   // has p3 = max(S)
  EXPECT_FALSE(calc.sub_quorum(S, ProcessSet::of({0, 1})));  // lacks p3
  EXPECT_FALSE(calc.sub_quorum(S, ProcessSet::of({1, 2})));  // lacks p3
}

TEST(SubQuorum, SingletonChainIsLegalWithMinQuorumOne) {
  const QuorumCalculus calc(kCore5, 1);
  EXPECT_TRUE(calc.sub_quorum(ProcessSet::of({4}), ProcessSet::of({4})));
  EXPECT_TRUE(calc.sub_quorum(ProcessSet::of({3, 4}), ProcessSet::of({4})));
  EXPECT_FALSE(calc.sub_quorum(ProcessSet::of({3, 4}), ProcessSet::of({3})));
}

TEST(SubQuorum, InfinityHasNoSubQuorum) {
  const QuorumCalculus calc(kCore5, 1);
  EXPECT_FALSE(calc.sub_quorum(std::nullopt, kCore5));
  EXPECT_FALSE(calc.sub_quorum(std::nullopt, ProcessSet::of({0})));
}

TEST(SubQuorum, DegenerateEmptyPreviousQuorumGrantsNoSuccession) {
  // The paper-4.1 tie-break (clause 2b) splits a REAL previous quorum in
  // half. An empty S used to satisfy contains_exact_half_of vacuously
  // (2*0 == 0); the succession clauses must all fail for it, so the only
  // way past an empty history is the unconditional clause 2c.
  const QuorumCalculus calc(kCore5, 2);
  const ProcessSet empty;
  // Meets the Min_Quorum floor but neither succession clause vs empty S,
  // and is too small for the unconditional clause (2 + 2 <= 5).
  const ProcessSet T = ProcessSet::of({3, 4});
  EXPECT_FALSE(T.contains_majority_of(empty));
  EXPECT_FALSE(T.contains_exact_half_of(empty));
  EXPECT_FALSE(tie_break_favors(empty, T));
  EXPECT_FALSE(calc.sub_quorum(empty, T));
  // A component big enough for clause 2c still proceeds regardless of
  // the degenerate history — that clause is defined to ignore it.
  EXPECT_TRUE(calc.sub_quorum(empty, ProcessSet::of({0, 1, 2, 3})));
}

TEST(SubQuorum, MinQuorumFloorBlocksSmallGroups) {
  const QuorumCalculus calc(kCore5, 3);
  // {3,4} is a majority of {2,3,4} but below the Min_Quorum floor.
  EXPECT_FALSE(calc.sub_quorum(ProcessSet::of({2, 3, 4}), ProcessSet::of({3, 4})));
  EXPECT_TRUE(
      calc.sub_quorum(ProcessSet::of({2, 3, 4}), ProcessSet::of({2, 3, 4})));
}

TEST(SubQuorum, UnconditionalClauseOverridesHistory) {
  // Min_Quorum = 2, n = 5: any T with |T ∩ W0| > 3 proceeds regardless of
  // the previous quorum.
  const QuorumCalculus calc(kCore5, 2);
  const auto big = ProcessSet::of({0, 1, 2, 3});
  const auto disjoint_prev = ProcessSet::of({4});
  EXPECT_TRUE(calc.unconditional(big));
  EXPECT_TRUE(calc.sub_quorum(disjoint_prev, big));
  // One fewer member: no longer unconditional, and not a majority of {4}.
  const auto small = ProcessSet::of({0, 1, 2});
  EXPECT_FALSE(calc.unconditional(small));
  EXPECT_FALSE(calc.sub_quorum(disjoint_prev, small));
}

TEST(SubQuorum, MeetsMinQuorumCountsOnlyAdmitted) {
  const QuorumCalculus calc(ProcessSet::of({0, 1, 2}), 2);
  EXPECT_TRUE(calc.meets_min_quorum(ProcessSet::of({0, 1, 7, 8})));
  EXPECT_FALSE(calc.meets_min_quorum(ProcessSet::of({0, 7, 8, 9})));
}

TEST(SubQuorum, DynamicCalculusSeparatesAdmittedFromAll) {
  // W = {0,1,2}, A = {3,4}: Min_Quorum counts W only; the unconditional
  // clause counts W ∪ A.
  const QuorumCalculus calc(ProcessSet::of({0, 1, 2}), ProcessSet::range(5), 2);
  EXPECT_FALSE(calc.meets_min_quorum(ProcessSet::of({3, 4})));
  EXPECT_TRUE(calc.meets_min_quorum(ProcessSet::of({0, 1, 3, 4})));
  EXPECT_TRUE(calc.unconditional(ProcessSet::of({0, 1, 3, 4})));
  EXPECT_FALSE(calc.unconditional(ProcessSet::of({0, 1, 3})));
}

TEST(SubQuorum, RejectsAdmittedNotSubsetOfAll) {
  EXPECT_THROW(QuorumCalculus(ProcessSet::of({0, 9}), ProcessSet::of({0, 1}), 1),
               InvariantViolation);
}

TEST(SubQuorum, RejectsZeroMinQuorum) {
  EXPECT_THROW(QuorumCalculus(kCore5, 0), InvariantViolation);
}

// Property sweep: paper 4.1 property 1 — Sub_Quorum(S,T) implies S∩T ≠ ∅
// — over every (S, T) pair of subsets of a 6-process universe, for all
// Min_Quorum values, with S restricted to legal quorums (|S∩W0| >= MinQ).
class SubQuorumProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SubQuorumProperty, SubQuorumImpliesIntersection) {
  const std::size_t min_quorum = GetParam();
  const auto core = ProcessSet::range(6);
  const QuorumCalculus calc(core, min_quorum);
  for (std::uint32_t s_bits = 1; s_bits < 64; ++s_bits) {
    ProcessSet S;
    for (std::uint32_t b = 0; b < 6; ++b) {
      if (s_bits & (1u << b)) S.insert(ProcessId(b));
    }
    if (S.intersection_size(core) < min_quorum) continue;  // not a legal quorum
    for (std::uint32_t t_bits = 1; t_bits < 64; ++t_bits) {
      ProcessSet T;
      for (std::uint32_t b = 0; b < 6; ++b) {
        if (t_bits & (1u << b)) T.insert(ProcessId(b));
      }
      if (calc.sub_quorum(S, T)) {
        EXPECT_TRUE(S.intersects(T))
            << "S=" << S.to_string() << " T=" << T.to_string()
            << " MinQ=" << min_quorum;
      }
    }
  }
}

// Property 2: two sub-quorums of the same S intersect each other.
TEST_P(SubQuorumProperty, TwoSubQuorumsOfSameQuorumIntersect) {
  const std::size_t min_quorum = GetParam();
  const auto core = ProcessSet::range(6);
  const QuorumCalculus calc(core, min_quorum);
  for (std::uint32_t s_bits = 1; s_bits < 64; ++s_bits) {
    ProcessSet S;
    for (std::uint32_t b = 0; b < 6; ++b) {
      if (s_bits & (1u << b)) S.insert(ProcessId(b));
    }
    if (S.intersection_size(core) < min_quorum) continue;
    std::vector<ProcessSet> successors;
    for (std::uint32_t t_bits = 1; t_bits < 64; ++t_bits) {
      ProcessSet T;
      for (std::uint32_t b = 0; b < 6; ++b) {
        if (t_bits & (1u << b)) T.insert(ProcessId(b));
      }
      if (calc.sub_quorum(S, T)) successors.push_back(T);
    }
    for (const auto& T1 : successors) {
      for (const auto& T2 : successors) {
        EXPECT_TRUE(T1.intersects(T2))
            << "S=" << S.to_string() << " T1=" << T1.to_string()
            << " T2=" << T2.to_string() << " MinQ=" << min_quorum;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MinQuorumSweep, SubQuorumProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

/// Each member of `of` kept with probability `keep`.
ProcessSet random_subset(Rng& rng, const ProcessSet& of, double keep) {
  ProcessSet out;
  for (const ProcessId p : of) {
    if (rng.next_bool(keep)) out.insert(p);
  }
  return out;
}

// Property 1 through sub_quorum_implies_intersection, on random calculi:
// static (W = W ∪ A) and section-6 (W ⊂ W ∪ A), Min_Quorum from 1 to |W|,
// the tie-break on and off, and ids drawn from [0, 512) so the sets
// straddle ProcessSet's inline limit. S ranges over every set the helper
// admits (S meets Min_Quorum); T over subsets of W ∪ A plus outsiders.
TEST(SubQuorumProperty1, HoldsForEveryPreviousQuorumMeetingMinQuorum) {
  Rng rng(20261019);
  const ProcessSet universe = ProcessSet::range(512);
  std::size_t checked = 0;
  std::size_t granted = 0;
  std::size_t granted_without_majority = 0;
  for (int round = 0; round < 1000; ++round) {
    ProcessSet all;
    while (all.size() < 2) all = random_subset(rng, universe, 0.04);
    const bool dynamic = rng.next_bool(0.5);
    ProcessSet admitted = all;
    if (dynamic) {
      // A nonempty proper subset: W ⊂ W ∪ A.
      do {
        admitted = random_subset(rng, all, rng.next_double());
      } while (admitted.empty() || admitted == all);
    }
    const std::size_t min_quorum =
        1 + static_cast<std::size_t>(rng.next_below(admitted.size()));
    const bool tie_break = rng.next_bool(0.5);
    const QuorumCalculus calc =
        dynamic ? QuorumCalculus(admitted, all, min_quorum, tie_break)
                : QuorumCalculus(all, min_quorum, tie_break);
    const ProcessSet outsiders = random_subset(rng, universe, 0.01);
    for (int pair = 0; pair < 100; ++pair) {
      const ProcessSet S = random_subset(rng, all, rng.next_double())
                               .set_union(random_subset(rng, outsiders, 0.5));
      if (!calc.meets_min_quorum(S)) continue;
      const ProcessSet T = random_subset(rng, all, rng.next_double())
                               .set_union(random_subset(rng, outsiders, 0.5));
      ++checked;
      if (calc.sub_quorum(S, T)) {
        ++granted;
        if (!T.contains_majority_of(S)) ++granted_without_majority;
      }
      EXPECT_TRUE(sub_quorum_implies_intersection(calc, S, T))
          << calc.to_string() << " S=" << S.to_string()
          << " T=" << T.to_string() << " tie_break=" << tie_break;
    }
  }
  // The sweep reaches the majority clause and the two clauses (tie-break
  // and unconditional) that grant T without a majority of S.
  EXPECT_GT(checked, 40000u);
  EXPECT_GT(granted, 15000u);
  EXPECT_GT(granted_without_majority, 400u);
}

// Why the helper needs S to meet Min_Quorum: clause 2c grants a T that is
// large enough in W ∪ A without looking at S, so an S below the floor can
// lie entirely outside it.
TEST(SubQuorumProperty1, FailsForAPreviousQuorumBelowMinQuorum) {
  const QuorumCalculus calc(ProcessSet::range(10), 5);
  const ProcessSet S = ProcessSet::of({9});
  const ProcessSet T = ProcessSet::range(6);
  EXPECT_FALSE(calc.meets_min_quorum(S));
  EXPECT_TRUE(calc.sub_quorum(S, T));
  EXPECT_FALSE(S.intersects(T));
  EXPECT_FALSE(sub_quorum_implies_intersection(calc, S, T));
}

// ---- ParticipantTracker (section 6) --------------------------------------

TEST(Participants, InitialStateCoreVsJoiner) {
  const auto core = ProcessSet::of({0, 1, 2});
  const auto core_member = ParticipantTracker::initial(core, ProcessId(1));
  EXPECT_EQ(core_member.admitted(), core);
  EXPECT_TRUE(core_member.pending().empty());
  const auto joiner = ParticipantTracker::initial(core, ProcessId(7));
  EXPECT_EQ(joiner.admitted(), core);
  EXPECT_EQ(joiner.pending(), ProcessSet::of({7}));
}

TEST(Participants, MergeUnionsAndSubtractsAdmitted) {
  const auto core = ProcessSet::of({0, 1});
  auto a = ParticipantTracker::initial(core, ProcessId(0));
  const auto b = ParticipantTracker::initial(core, ProcessId(5));
  const auto c = ParticipantTracker::initial(core, ProcessId(6));
  a.merge_attempt_step({&b, &c});
  EXPECT_EQ(a.admitted(), core);
  EXPECT_EQ(a.pending(), ProcessSet::of({5, 6}));
}

TEST(Participants, AdmitOnFormMovesSessionMembers) {
  const auto core = ProcessSet::of({0, 1});
  auto t = ParticipantTracker::initial(core, ProcessId(0));
  const auto b = ParticipantTracker::initial(core, ProcessId(5));
  const auto c = ParticipantTracker::initial(core, ProcessId(6));
  t.merge_attempt_step({&b, &c});
  t.admit_on_form(ProcessSet::of({0, 1, 5}));  // 6 was not in the session
  EXPECT_EQ(t.admitted(), ProcessSet::of({0, 1, 5}));
  EXPECT_EQ(t.pending(), ProcessSet::of({6}));
}

TEST(Participants, MonotonicityLemma12) {
  // W and W∪A never shrink across merges and admissions.
  const auto core = ProcessSet::of({0, 1});
  auto t = ParticipantTracker::initial(core, ProcessId(0));
  Rng rng(77);
  ProcessSet prev_w = t.admitted();
  ProcessSet prev_all = t.all_participants();
  for (int round = 0; round < 50; ++round) {
    const auto peer = ParticipantTracker::initial(
        core, ProcessId(static_cast<std::uint32_t>(2 + rng.next_below(10))));
    t.merge_attempt_step({&peer});
    if (rng.next_bool(0.5)) {
      ProcessSet session = core;
      for (ProcessId p : t.pending()) {
        if (rng.next_bool(0.5)) session.insert(p);
      }
      t.admit_on_form(session);
    }
    EXPECT_TRUE(prev_w.is_subset_of(t.admitted()));
    EXPECT_TRUE(prev_all.is_subset_of(t.all_participants()));
    prev_w = t.admitted();
    prev_all = t.all_participants();
  }
}

TEST(Participants, CodecRoundTrip) {
  const auto core = ProcessSet::of({0, 1, 2});
  auto t = ParticipantTracker::initial(core, ProcessId(9));
  Encoder enc;
  t.encode(enc);
  Decoder dec(enc.bytes());
  EXPECT_EQ(ParticipantTracker::decode(dec), t);
}

}  // namespace
}  // namespace dynvote
