// Property-based tests: randomized failure schedules, swept over seeds
// and protocols with parameterized gtest. Each run checks the paper's
// invariants end to end:
//
//   * no split brain, unique formed session numbers (Lemma 10);
//   * ≺ totality on formed sessions (Theorem 2) where affordable;
//   * per-process session numbers monotonically increase (Lemmas 1/3);
//   * the optimized protocol's ambiguity bound (Theorem 1);
//   * liveness: a fully healed system re-forms a primary;
//   * the replicated store never diverges under a consistent protocol;
//   * the deliberately broken baselines DO violate on adversarial
//     message-loss schedules (negative control).
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "app/replicated_kv.hpp"
#include "dv/basic_protocol.hpp"
#include "harness/availability.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"
#include "harness/schedule.hpp"

namespace dynvote {
namespace {

/// Trace listener asserting Lemma 1/3: each process's attempted session
/// numbers strictly increase.
class MonotonicityObserver final : public obs::TraceListener {
 public:
  void note(const obs::TraceEvent& e) override {
    if (e.kind != obs::TraceEventKind::kSessionAttempt) return;
    auto [it, inserted] = last_.try_emplace(e.a, e.number);
    if (!inserted) {
      EXPECT_GT(e.number, it->second)
          << to_string(e.a) << " attempted non-increasing session numbers";
      it->second = e.number;
    }
  }

 private:
  std::map<ProcessId, SessionNumber> last_;
};

class RandomScheduleProperty
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, std::uint64_t>> {
};

TEST_P(RandomScheduleProperty, InvariantsHoldAndHealedSystemRecovers) {
  const auto [kind, seed] = GetParam();
  const std::uint32_t n = 5 + seed % 3;  // 5..7 processes

  ScheduleOptions schedule_options;
  schedule_options.seed = seed * 7919 + 13;
  schedule_options.duration = 1'200'000;
  schedule_options.mean_event_gap = 45'000;
  const auto schedule =
      generate_schedule(ProcessSet::range(n), schedule_options);

  ClusterOptions options;
  options.kind = kind;
  options.n = n;
  options.config.min_quorum = 1 + seed % 2;
  options.sim.seed = seed;
  MonotonicityObserver monotonic;  // outlives the cluster's sink
  Cluster cluster(options);
  // The extra listener reads the trace after the cluster's checker.
  cluster.trace().add_listener(monotonic);

  enqueue_schedule(cluster, schedule);
  cluster.merge();
  cluster.settle();

  // Safety.
  const auto violations = cluster.checker().check_basic();
  EXPECT_TRUE(violations.empty())
      << to_string(kind) << " seed " << seed << ":\n" << to_string(violations);
  if (cluster.checker().formed_session_count() <= 200) {
    const auto order = cluster.checker().check_order();
    EXPECT_TRUE(order.empty())
        << to_string(kind) << " seed " << seed << ":\n" << to_string(order);
  }

  // Theorem 1 bound (any dv-family protocol with full recording).
  if (kind == ProtocolKind::kOptimized) {
    for (ProcessId p : cluster.all_processes()) {
      EXPECT_LE(cluster.checker().max_ambiguous(p),
                n - options.config.min_quorum + 1)
          << "Theorem 1 violated at " << to_string(p) << " seed " << seed;
    }
  }

  // Liveness: heal everything and expect a primary.
  for (ProcessId p : cluster.all_processes()) {
    if (!cluster.sim().network().alive(p)) cluster.recover(p);
  }
  cluster.merge();
  cluster.settle();
  EXPECT_TRUE(cluster.live_primary().has_value())
      << to_string(kind) << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    ConsistentProtocols, RandomScheduleProperty,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::kBasic, ProtocolKind::kOptimized,
                          ProtocolKind::kCentralized,
                          ProtocolKind::kBlockingDynamic,
                          ProtocolKind::kThreePhaseRecovery),
        ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

// Hybrid runs with Min_Quorum pinned to 1 (its floor rule replaces the
// Min_Quorum mechanism), so it gets its own instantiation.
class HybridScheduleProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(HybridScheduleProperty, HybridStaysConsistentOnRandomSchedules) {
  const std::uint64_t seed = GetParam();
  ScheduleOptions schedule_options;
  schedule_options.seed = seed * 104729 + 7;
  schedule_options.duration = 1'000'000;
  const auto schedule = generate_schedule(ProcessSet::range(5), schedule_options);
  ClusterOptions options;
  options.kind = ProtocolKind::kHybridJm;
  options.n = 5;
  options.sim.seed = seed;
  const auto result = run_schedule(ProtocolKind::kHybridJm, schedule, options);
  EXPECT_EQ(result.violations, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridScheduleProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---- Adversarial message loss on top of random schedules -------------------

// Drops a fraction of protocol messages (never self-deliveries) — the
// environment in which attempts go ambiguous constantly. The consistent
// protocols must shrug it off; the broken ones must eventually split.
class LossyScheduleProperty
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, std::uint64_t>> {
 public:
  /// Returns the number of basic violations observed.
  static std::size_t run_lossy(ProtocolKind kind, std::uint64_t seed) {
    ScheduleOptions schedule_options;
    schedule_options.seed = seed * 31 + 1;
    schedule_options.duration = 1'000'000;
    schedule_options.mean_event_gap = 35'000;
    const auto schedule =
        generate_schedule(ProcessSet::range(5), schedule_options);

    ClusterOptions options;
    options.kind = kind;
    options.n = 5;
    options.sim.seed = seed;
    Cluster cluster(options);

    Rng drop_rng(seed ^ 0xD1CEu);
    cluster.sim().network().set_drop_filter(
        [&drop_rng](const sim::Envelope& env) {
          if (env.from == env.to) return false;
          return drop_rng.next_bool(0.12);
        });

    enqueue_schedule(cluster, schedule);
    cluster.merge();
    cluster.settle();
    return cluster.checker().check_basic().size();
  }
};

TEST_P(LossyScheduleProperty, ConsistentProtocolsSurviveMessageLoss) {
  const auto [kind, seed] = GetParam();
  EXPECT_EQ(run_lossy(kind, seed), 0u)
      << to_string(kind) << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    UnderLoss, LossyScheduleProperty,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::kBasic, ProtocolKind::kOptimized,
                          ProtocolKind::kCentralized,
                          ProtocolKind::kBlockingDynamic,
                          ProtocolKind::kHybridJm,
                          ProtocolKind::kThreePhaseRecovery),
        ::testing::Values(11u, 12u, 13u, 14u)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(LossyNegativeControl, NaiveBaselineViolatesSomewhere) {
  // Negative control for the whole measurement apparatus: across a sweep
  // of lossy executions the naive baseline must produce at least one
  // consistency violation (otherwise the checker or the fault model is
  // toothless). The last-attempt-only baseline needs the paper's precise
  // double-failure interleaving, reproduced deterministically in
  // scenario_paper_test.cpp.
  std::size_t naive_violations = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    naive_violations +=
        LossyScheduleProperty::run_lossy(ProtocolKind::kNaiveDynamic, seed);
  }
  EXPECT_GT(naive_violations, 0u);
}

// ---- Section-6 dynamic participants under random churn ---------------------

class DynamicJoinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicJoinProperty, JoinsUnderChurnKeepEveryInvariant) {
  const std::uint64_t seed = GetParam();
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 3;
  options.config.min_quorum = 2;
  options.config.dynamic_participants = true;
  options.sim.seed = seed;
  Cluster cluster(options);
  cluster.start();

  Rng rng(seed * 613 + 3);
  std::uint32_t next_joiner = 3;
  ProcessSet everyone = ProcessSet::range(3);

  // Interleave joins with random bipartitions and heals.
  for (int round = 0; round < 12; ++round) {
    const double dice = rng.next_double();
    if (dice < 0.4 && next_joiner < 12) {
      cluster.add_process(ProcessId(next_joiner));
      everyone.insert(ProcessId(next_joiner));
      ++next_joiner;
      cluster.merge();
    } else if (dice < 0.75) {
      ProcessSet half;
      for (ProcessId p : everyone) {
        if (rng.next_bool(0.5)) half.insert(p);
      }
      if (!half.empty() && half.size() < everyone.size()) {
        cluster.partition({half, everyone.set_difference(half)});
      }
    } else {
      cluster.merge();
    }
    cluster.settle();

    // Cross-process sanity on top of the tracker's internal Lemma-12
    // enforcement: every W only ever names processes that exist.
    for (ProcessId p : cluster.all_processes()) {
      const auto& dv =
          dynamic_cast<const BasicDvProtocol&>(cluster.protocol(p));
      EXPECT_TRUE(dv.state().participants.admitted().is_subset_of(everyone))
          << to_string(p) << " seed " << seed;
    }
  }

  cluster.merge();
  cluster.settle();
  ASSERT_TRUE(cluster.live_primary().has_value()) << "seed " << seed;
  EXPECT_EQ(cluster.live_primary()->members, everyone) << "seed " << seed;
  const auto violations = cluster.checker().check_all();
  EXPECT_TRUE(violations.empty()) << "seed " << seed << "\n"
                                  << to_string(violations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicJoinProperty,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u, 36u));

// ---- Replicated store under churn ------------------------------------------

class KvChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KvChurnProperty, StoreNeverDivergesUnderConsistentProtocol) {
  const std::uint64_t seed = GetParam();
  ScheduleOptions schedule_options;
  schedule_options.seed = seed * 3331;
  schedule_options.duration = 900'000;
  const auto schedule = generate_schedule(ProcessSet::range(5), schedule_options);

  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = seed;
  Cluster cluster(options);
  app::KvStore store(cluster);

  enqueue_schedule(cluster, schedule);
  // Periodic writes from every process, racing the failures.
  int counter = 0;
  for (SimTime t = 30'000; t < schedule_options.duration; t += 60'000) {
    cluster.sim().queue().schedule_at(t, [&cluster, &store, &counter] {
      for (ProcessId p : cluster.all_processes()) {
        if (!cluster.sim().network().alive(p)) continue;
        store.write(p, "key" + std::to_string(counter % 3),
                    "value" + std::to_string(counter));
        ++counter;
      }
      store.sync_primary();
    });
  }
  cluster.merge();
  cluster.settle();
  store.sync_primary();

  const auto divergences = store.audit();
  EXPECT_TRUE(divergences.empty()) << "seed " << seed << ": " <<
      (divergences.empty() ? "" : divergences.front().detail);
  EXPECT_EQ(cluster.checker().check_basic().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvChurnProperty,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u, 26u));

}  // namespace
}  // namespace dynvote
