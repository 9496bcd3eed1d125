// Unit tests: strong ids, ProcessSet algebra, Rng determinism, Summary
// statistics, Table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "util/ensure.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dynvote {
namespace {

TEST(Ids, ProcessIdOrderingFollowsValue) {
  EXPECT_LT(ProcessId(1), ProcessId(2));
  EXPECT_EQ(ProcessId(7), ProcessId(7));
  EXPECT_GT(ProcessId(10), ProcessId(9));
}

TEST(Ids, ViewIdZeroIsInvalid) {
  EXPECT_FALSE(ViewId().valid());
  EXPECT_TRUE(ViewId(1).valid());
}

TEST(Ids, ToStringFormats) {
  EXPECT_EQ(to_string(ProcessId(3)), "p3");
  EXPECT_EQ(to_string(ViewId(12)), "v12");
}

std::string at_line(int line, const std::string& message) {
  return std::string(__FILE__) + ":" + std::to_string(line) + ": " + message;
}

TEST(Ensure, ThrowsWithLocationOnFailure) {
  EXPECT_NO_THROW(ensure(true, "fine"));
  const int line = __LINE__ + 2;
  try {
    ensure(false, "broken invariant");
    FAIL() << "ensure did not throw";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(std::string(e.what()), at_line(line, "broken invariant"));
  }
}

TEST(Ensure, FormattedMessageKeepsCallSiteAndFullText) {
  const int line = __LINE__ + 2;
  try {
    invariant_failed("unknown node " + to_string(ProcessId(42)) + " (of 3)");
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(std::string(e.what()), at_line(line, "unknown node p42 (of 3)"));
  }
}

TEST(ProcessSet, NormalizesDuplicatesAndOrder) {
  ProcessSet s{ProcessId(3), ProcessId(1), ProcessId(3), ProcessId(2)};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(*s.begin(), ProcessId(1));
  EXPECT_EQ(*std::next(s.begin(), 2), ProcessId(3));
}

TEST(ProcessSet, RangeAndOfBuilders) {
  EXPECT_EQ(ProcessSet::range(3), ProcessSet::of({0, 1, 2}));
  EXPECT_TRUE(ProcessSet::range(0).empty());
}

TEST(ProcessSet, InsertEraseContains) {
  ProcessSet s;
  EXPECT_TRUE(s.insert(ProcessId(5)));
  EXPECT_FALSE(s.insert(ProcessId(5)));
  EXPECT_TRUE(s.contains(ProcessId(5)));
  EXPECT_TRUE(s.erase(ProcessId(5)));
  EXPECT_FALSE(s.erase(ProcessId(5)));
  EXPECT_FALSE(s.contains(ProcessId(5)));
}

TEST(ProcessSet, UnionIntersectionDifference) {
  const auto a = ProcessSet::of({0, 1, 2, 3});
  const auto b = ProcessSet::of({2, 3, 4});
  EXPECT_EQ(a.set_union(b), ProcessSet::of({0, 1, 2, 3, 4}));
  EXPECT_EQ(a.set_intersection(b), ProcessSet::of({2, 3}));
  EXPECT_EQ(a.set_difference(b), ProcessSet::of({0, 1}));
  EXPECT_EQ(a.intersection_size(b), 2u);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(ProcessSet::of({9})));
}

TEST(ProcessSet, SubsetChecks) {
  EXPECT_TRUE(ProcessSet::of({1, 2}).is_subset_of(ProcessSet::of({0, 1, 2})));
  EXPECT_FALSE(ProcessSet::of({1, 5}).is_subset_of(ProcessSet::of({0, 1, 2})));
  EXPECT_TRUE(ProcessSet{}.is_subset_of(ProcessSet::of({0})));
}

TEST(ProcessSet, MajorityAndHalf) {
  const auto core = ProcessSet::of({0, 1, 2, 3});
  EXPECT_TRUE(ProcessSet::of({0, 1, 2}).contains_majority_of(core));
  EXPECT_FALSE(ProcessSet::of({0, 1}).contains_majority_of(core));
  EXPECT_TRUE(ProcessSet::of({0, 1}).contains_exact_half_of(core));
  EXPECT_FALSE(ProcessSet::of({0}).contains_exact_half_of(core));
  // Odd-sized set has no exact half.
  EXPECT_FALSE(
      ProcessSet::of({0, 1}).contains_exact_half_of(ProcessSet::of({0, 1, 2})));
}

TEST(ProcessSet, MajorityOfEmptySetIsFalse) {
  EXPECT_FALSE(ProcessSet::of({0}).contains_majority_of(ProcessSet{}));
}

TEST(ProcessSet, MaxMemberAndIndexOf) {
  const auto s = ProcessSet::of({4, 1, 7});
  EXPECT_EQ(s.max_member(), ProcessId(7));
  EXPECT_EQ(ProcessSet{}.max_member(), std::nullopt);
  EXPECT_EQ(s.index_of(ProcessId(1)), 0u);
  EXPECT_EQ(s.index_of(ProcessId(7)), 2u);
  try {
    (void)s.index_of(ProcessId(2));
    FAIL() << "index_of did not throw";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("index_of: p2 not in {p1,p4,p7}"),
              std::string::npos);
  }
}

TEST(ProcessSet, ToStringRendersSorted) {
  EXPECT_EQ(ProcessSet::of({2, 0}).to_string(), "{p0,p2}");
  EXPECT_EQ(ProcessSet{}.to_string(), "{}");
}

TEST(ProcessSet, TotalOrderForContainers) {
  std::set<ProcessSet> sets;
  sets.insert(ProcessSet::of({0, 1}));
  sets.insert(ProcessSet::of({0, 2}));
  sets.insert(ProcessSet::of({0, 1}));
  EXPECT_EQ(sets.size(), 2u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= (v == 5);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  EXPECT_NE(a.next(), child.next());
}

TEST(Summary, BasicStatistics) {
  Summary s;
  s.add_all({1, 2, 3, 4});
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.percentile(0.99), 99.01, 0.011);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Summary, EmptyAndSingleton) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_THROW((void)s.percentile(0.5), InvariantViolation);
  s.add(42);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Formatting, DoublesAndPercents) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.934123), "93.41%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"proto", "avail"});
  t.add_row({"dv", "99.9%"});
  t.add_separator();
  t.add_row({"static", "80.0%"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| proto  |"), std::string::npos);
  EXPECT_NE(out.find("| dv     |"), std::string::npos);
  EXPECT_NE(out.find("| static |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantViolation);
}

}  // namespace
}  // namespace dynvote
