// Targeted coverage of under-exercised corners: the Lemma-2 learning
// chain, voluntary leaves under the blocking baseline, same-membership
// attempt overwrite with knowledge arrays, the DES's delay bounds, and a
// larger-scale smoke run.
#include <iterator>

#include <gtest/gtest.h>

#include "dv/optimized_protocol.hpp"
#include "gc_events.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"

namespace dynvote {
namespace {

const OptimizedDvProtocol& opt(Cluster& cluster, std::uint32_t p) {
  return dynamic_cast<const OptimizedDvProtocol&>(
      cluster.protocol(ProcessId(p)));
}

// ---- Lemma 2: a later shared attempt resolves the earlier one --------------

TEST(Lemma2Chain, LaterFormedSessionResolvesEarlierAmbiguity) {
  // p2 misses the attempt round of session A (all five), so A is
  // ambiguous at p2. Then a second session B forms in a smaller view
  // {1,2,3} that p2 completes. When p2 later meets p1 again, p1's
  // Last_Formed(p2) = B > A gives no direct verdict on A (the paper's
  // third case) — but B itself was in p2's ambiguous set and resolves by
  // adoption, superseding A exactly as Lemma 2's induction argues.
  Cluster cluster([] {
    ClusterOptions options;
    options.kind = ProtocolKind::kOptimized;
    options.n = 5;
    options.sim.seed = 201;
    return options;
  }());
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt", 4);
  cluster.start();  // A = ({0..4},1): all form but p2
  ASSERT_EQ(opt(cluster, 2).state().ambiguous.size(), 1u);
  faults.clear();

  // B = ({1,2,3}, 2) — majority of A — forms normally, clearing p2's
  // list through the ordinary form step.
  cluster.partition({ProcessSet::of({1, 2, 3}), ProcessSet::of({0, 4})});
  cluster.settle();
  ASSERT_TRUE(cluster.protocol(ProcessId(2)).is_primary());
  EXPECT_TRUE(opt(cluster, 2).state().ambiguous.empty());
  EXPECT_GT(opt(cluster, 2).state().last_primary->number, 1);
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(Lemma2Chain, AdoptionThroughTheLaterAttempt) {
  // Same setup, but p2 ALSO misses B's attempt round. A resolves already
  // during B (adoption from Last_Formed gossip); B itself resolves at
  // the next encounter with a B-member, leaving p2 fully caught up
  // without ever completing a form step.
  Cluster cluster([] {
    ClusterOptions options;
    options.kind = ProtocolKind::kOptimized;
    options.n = 5;
    options.sim.seed = 202;
    options.config.min_quorum = 3;  // keeps the probe view from forming
    return options;
  }());
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(2), "dv.attempt");
  cluster.start();
  cluster.partition({ProcessSet::of({1, 2, 3}), ProcessSet::of({0, 4})});
  cluster.settle();
  // During B's attempt step p2 already learned (from p1's and p3's
  // Last_Formed) that A was formed, adopted it, and then recorded B:
  // exactly one ambiguous session remains, and Last_Primary = A.
  ASSERT_EQ(opt(cluster, 2).state().ambiguous.size(), 1u);
  EXPECT_EQ(opt(cluster, 2).state().last_primary->members,
            ProcessSet::range(5));
  EXPECT_GE(gc_adoptions(cluster, 2), 1u);
  faults.clear();

  // A quorum-less probe view with p1: learning runs, nothing can form.
  cluster.partition({ProcessSet::of({1, 2}), ProcessSet::of({3}),
                     ProcessSet::of({0, 4})});
  cluster.settle();
  const auto& state = opt(cluster, 2).state();
  ASSERT_TRUE(state.last_primary.has_value());
  EXPECT_EQ(state.last_primary->members, ProcessSet::of({1, 2, 3}));  // B
  EXPECT_TRUE(state.ambiguous.empty());  // A superseded, B resolved
  EXPECT_GE(gc_adoptions(cluster, 2), 1u);
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

// ---- overwrite rule with knowledge arrays -----------------------------------

TEST(OverwriteRule, SameMembershipAttemptKeepsOnlyTheLatest) {
  // The same view fails to form twice: the second attempt overwrites the
  // first (same membership), including a fresh knowledge array.
  Cluster cluster([] {
    ClusterOptions options;
    options.kind = ProtocolKind::kOptimized;
    options.n = 3;
    options.sim.seed = 203;
    return options;
  }());
  FaultInjector faults(cluster.sim().network());
  faults.drop_to(ProcessId(0), "dv.attempt", 2);
  faults.drop_to(ProcessId(1), "dv.attempt", 2);
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2})});
  cluster.settle();
  ASSERT_EQ(opt(cluster, 0).state().ambiguous.size(), 1u);
  const SessionNumber first = opt(cluster, 0).state().ambiguous[0].session.number;

  cluster.oracle().inject_view(ProcessSet::of({0, 1}));
  cluster.settle();
  // Second failed attempt with the same membership: still ONE record,
  // with the higher number.
  const auto& ambiguous = opt(cluster, 0).state().ambiguous;
  ASSERT_EQ(ambiguous.size(), 1u);
  EXPECT_GT(ambiguous[0].session.number, first);
  EXPECT_EQ(ambiguous[0].session.members, ProcessSet::of({0, 1}));
}

// ---- voluntary leave under the blocking baseline -----------------------------

TEST(VoluntaryLeave, OneLeaverStallsTheBlockingProtocolOnly) {
  // The paper's sharpest criticism of the blocking class: "one process
  // that voluntarily leaves the system may cause all the other
  // participants to block." A leaver here is a process that disconnects
  // right after the attempt round it participated in was cut short.
  for (ProtocolKind kind :
       {ProtocolKind::kBlockingDynamic, ProtocolKind::kOptimized}) {
    ClusterOptions options;
    options.kind = kind;
    options.n = 5;
    options.sim.seed = 204;
    Cluster cluster(options);
    FaultInjector faults(cluster.sim().network());
    for (std::uint32_t p = 0; p < 5; ++p) {
      faults.drop_to(ProcessId(p), "dv.attempt", 4);
    }
    cluster.merge();
    cluster.settle();  // everyone attempted ({0..4},1); nobody formed
    faults.clear();
    // p4 leaves for good; the rest regroup.
    cluster.partition({ProcessSet::of({0, 1, 2, 3}), ProcessSet::of({4})});
    cluster.settle();
    if (kind == ProtocolKind::kBlockingDynamic) {
      EXPECT_FALSE(cluster.live_primary().has_value());
      EXPECT_GT(cluster.observer().blocked(), 0u);
    } else {
      ASSERT_TRUE(cluster.live_primary().has_value());
      EXPECT_EQ(cluster.live_primary()->members, ProcessSet::of({0, 1, 2, 3}));
    }
  }
}

// ---- delay bounds ---------------------------------------------------------------

TEST(DelayBounds, FormationLandsWithinTheConstantDelayBounds) {
  ClusterOptions options;
  options.kind = ProtocolKind::kBasic;
  options.n = 3;
  options.sim.seed = 205;
  Cluster cluster(options);
  cluster.start();
  // One view detection, then two message rounds: the last formation
  // lands between the smallest and the largest sum of the three delays.
  ASSERT_TRUE(cluster.live_primary().has_value());
  EXPECT_GE(cluster.sim().now(), kDetectionDelayMin + 2 * sim::kMinLatency);
  EXPECT_LE(cluster.sim().now(), kDetectionDelayMax + 2 * sim::kMaxLatency);
}

// ---- scale smoke ----------------------------------------------------------------

TEST(Scale, TwentyFiveProcessChainStaysCorrect) {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 25;
  options.sim.seed = 206;
  Cluster cluster(options);
  cluster.start();
  ASSERT_TRUE(cluster.live_primary().has_value());
  // Halve repeatedly: 25 -> 13 -> 7 -> 4.
  ProcessSet current = ProcessSet::range(25);
  while (current.size() > 4) {
    ProcessSet next;
    const std::size_t low = current.size() / 2 + (current.size() % 2 ? 0 : 1);
    // Keep the top-ranked half (wins any tie).
    for (auto it = std::next(current.begin(), static_cast<std::ptrdiff_t>(low));
         it != current.end(); ++it) {
      next.insert(*it);
    }
    std::vector<ProcessSet> groups{next, current.set_difference(next)};
    cluster.partition(groups);
    cluster.settle();
    ASSERT_TRUE(cluster.live_primary().has_value()) << next.to_string();
    EXPECT_EQ(cluster.live_primary()->members, next);
    current = next;
  }
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

}  // namespace
}  // namespace dynvote
