// Tests for the M:N pool backend (src/runtime/pool_transport.*): worker
// clamping, primary formation and fault verbs through RuntimeFleet, the
// determinism contract (byte-identical outcome transcripts at ANY
// worker count, equal to the thread backend and the DES oracle), the
// same-worker fast path vs cross-worker handoff split visible in the
// probe lanes, and a churn stress meant for the TSan pass
// (tools/run_experiments.sh wires the Runtime* prefixes in).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/runtime_probe.hpp"
#include "runtime/crosscheck.hpp"
#include "runtime/fleet.hpp"
#include "runtime/pool_transport.hpp"

namespace dynvote::runtime {
namespace {

std::vector<ProcessId> make_ids(std::uint32_t n) {
  std::vector<ProcessId> ids;
  for (std::uint32_t i = 0; i < n; ++i) ids.push_back(ProcessId(i));
  return ids;
}

FleetOptions pool_options(std::uint32_t n, std::uint32_t workers,
                          bool probes = false) {
  FleetOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = n;
  options.backend = RuntimeBackend::kPool;
  options.workers = workers;
  options.runtime.probes = probes;
  return options;
}

// ------------------------------------------------------------- clamping

TEST(RuntimePool, ClampsWorkerCountToProcessRange) {
  // More workers than processes would idle: clamp to n.
  EXPECT_EQ(PoolTransport(make_ids(3), /*workers=*/16).workers(), 3u);
  // Explicit counts inside [1, n] are honored exactly.
  EXPECT_EQ(PoolTransport(make_ids(5), /*workers=*/2).workers(), 2u);
  EXPECT_EQ(PoolTransport(make_ids(5), /*workers=*/5).workers(), 5u);
  // 0 = hardware_concurrency, still clamped to [1, n].
  const std::uint32_t automatic = PoolTransport(make_ids(4), 0).workers();
  EXPECT_GE(automatic, 1u);
  EXPECT_LE(automatic, 4u);
}

// ------------------------------------------------------------ lifecycle

TEST(RuntimePool, FormsOnePrimaryOnStartAndSurvivesVerbs) {
  RuntimeFleet fleet(pool_options(/*n=*/5, /*workers=*/2));
  fleet.start();
  EXPECT_EQ(RuntimeFleet::distinct_primaries(fleet.probe()), 1u);

  ProcessSet left;
  ProcessSet right;
  for (std::uint32_t i = 0; i < 2; ++i) left.insert(ProcessId(i));
  for (std::uint32_t i = 2; i < 5; ++i) right.insert(ProcessId(i));
  fleet.partition({left, right});
  EXPECT_LE(RuntimeFleet::distinct_primaries(fleet.probe()), 1u);
  fleet.crash(ProcessId(0));
  EXPECT_FALSE(fleet.transport().alive(ProcessId(0)));
  fleet.recover(ProcessId(0));
  fleet.merge();
  EXPECT_EQ(RuntimeFleet::distinct_primaries(fleet.probe()), 1u);
  fleet.stop();
}

// Expects `lookup` to throw an InvariantViolation whose text has `needle`.
template <typename Lookup>
void expect_lookup_names(Lookup lookup, const std::string& needle) {
  try {
    lookup();
    FAIL() << "lookup did not throw";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(RuntimePool, LookupsFindEveryIdAndNameAnUnknownOne) {
  PoolTransport transport(make_ids(3), /*workers=*/1);
  expect_lookup_names([&] { (void)transport.storage(ProcessId(9)); },
                      "unknown runtime process p9");

  RuntimeFleet fleet(pool_options(/*n=*/5, /*workers=*/1));
  for (const ProcessId p : fleet.processes()) {
    EXPECT_EQ(fleet.protocol(p).id(), p);
  }
  expect_lookup_names([&] { (void)fleet.protocol(ProcessId(5)); },
                      "unknown fleet process p5");
}

// ---------------------------------------------------------- determinism

// The tentpole contract, at worker counts the default cross-check does
// not visit: odd W, W=1 (everything on the fast path), and W=n (every
// message a cross-worker handoff) all reproduce the DES transcript.
TEST(RuntimePool, ByteIdenticalDigestsAtAnyWorkerCount) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const CrossCheckResult result =
        run_scenario(ProtocolKind::kOptimized, /*n=*/5, seed, /*steps=*/10,
                     /*probes=*/false, /*pool_workers=*/{1, 2, 3, 5});
    EXPECT_TRUE(result.digests_equal)
        << "seed " << seed << "\n--- DES ---\n"
        << result.sim_summary << "--- pool (divergent) ---\n"
        << result.pool_divergent_summary;
    ASSERT_EQ(result.pool.size(), 4u);
    for (const PoolCheck& check : result.pool) {
      EXPECT_EQ(check.digest, result.sim_digest)
          << "seed " << seed << " W=" << check.workers;
    }
  }
}

// Probe instrumentation must not perturb pool scheduling decisions:
// probes on or off, every worker count lands on the same digest.
TEST(RuntimePool, ProbesAreDigestNeutral) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const CrossCheckResult off = run_scenario(
        ProtocolKind::kOptimized, 4, seed, 10, /*probes=*/false, {1, 2});
    const CrossCheckResult on = run_scenario(
        ProtocolKind::kOptimized, 4, seed, 10, /*probes=*/true, {1, 2});
    EXPECT_TRUE(on.digests_equal) << "seed " << seed;
    ASSERT_EQ(on.pool.size(), off.pool.size());
    for (std::size_t i = 0; i < on.pool.size(); ++i) {
      EXPECT_EQ(on.pool[i].digest, off.pool[i].digest)
          << "seed " << seed << " W=" << on.pool[i].workers;
    }
  }
}

// --------------------------------------------------------------- probes

TEST(RuntimePool, ProbeLogsHaveOneLanePerWorker) {
  RuntimeFleet fleet(pool_options(/*n=*/4, /*workers=*/2, /*probes=*/true));
  // Static sharding: global index mod W.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.transport().lane_of(ProcessId(i)), i % 2);
  }
  fleet.start();
  ProcessSet left;
  ProcessSet right;
  for (std::uint32_t i = 0; i < 2; ++i) left.insert(ProcessId(i));
  for (std::uint32_t i = 2; i < 4; ++i) right.insert(ProcessId(i));
  fleet.partition({left, right});
  fleet.merge();
  const std::vector<obs::ThreadProbeLog> logs = fleet.probe_logs();
  fleet.stop();

  ASSERT_EQ(logs.size(), 3u);  // 2 worker lanes + controller
  EXPECT_EQ(logs[0].thread, 0u);
  EXPECT_EQ(logs[1].thread, 1u);
  EXPECT_EQ(logs.back().thread, obs::kControllerLane);
  std::uint64_t batches = 0;
  std::uint64_t run_queue = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t handlers = 0;
  for (const obs::ThreadProbeLog& lane : logs) {
    for (const obs::ProbeEntry& e : lane.entries) {
      switch (e.kind) {
        case obs::ProbeKind::kBatch:
          ++batches;
          EXPECT_GT(e.value, 0u);  // batch size
          break;
        case obs::ProbeKind::kRunQueue:
          ++run_queue;
          break;
        case obs::ProbeKind::kHandoff:
          ++handoffs;
          break;
        case obs::ProbeKind::kHandlerMessage:
          ++handlers;
          // The handling process's global index rides in `link` so the
          // Chrome export can color slices per process.
          EXPECT_LT(e.link, 4u);
          break;
        default:
          break;
      }
    }
  }
  // With 4 processes on 2 workers there is both same-worker traffic
  // (p0<->p2 share worker 0) and cross-worker traffic (p0<->p1).
  EXPECT_GT(batches, 0u);
  EXPECT_GT(run_queue, 0u);
  EXPECT_GT(handoffs, 0u);
  EXPECT_GT(handlers, 0u);
}

// W=1 pins every process to one worker: the whole run must ride the
// same-worker fast path — not a single cross-worker handoff.
TEST(RuntimePool, SingleWorkerRunsEntirelyOnFastPath) {
  RuntimeFleet fleet(pool_options(/*n=*/4, /*workers=*/1, /*probes=*/true));
  fleet.start();
  fleet.merge();
  const std::vector<obs::ThreadProbeLog> logs = fleet.probe_logs();
  fleet.stop();

  ASSERT_EQ(logs.size(), 2u);  // 1 worker lane + controller
  std::uint64_t run_queue = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t batches = 0;
  for (const obs::ThreadProbeLog& lane : logs) {
    for (const obs::ProbeEntry& e : lane.entries) {
      if (e.kind == obs::ProbeKind::kRunQueue) ++run_queue;
      if (e.kind == obs::ProbeKind::kHandoff) ++handoffs;
      if (e.kind == obs::ProbeKind::kBatch) ++batches;
    }
  }
  EXPECT_GT(run_queue, 0u);
  EXPECT_EQ(handoffs, 0u);
  EXPECT_EQ(batches, 0u);
}

// --------------------------------------------------------------- stress

// Heavy churn at several worker counts, for the TSan pass: every verb
// runs to quiescence, so completing at all proves no lost wakeup and no
// stuck spill; identical transcripts across W prove the scheduler left
// no fingerprint on the protocol.
TEST(RuntimePool, StressChurnIsDigestStableAcrossWorkerCounts) {
  std::vector<std::string> summaries;
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    RuntimeFleet fleet(pool_options(/*n=*/8, workers));
    fleet.start();
    ProcessSet left;
    ProcessSet right;
    for (std::uint32_t i = 0; i < 4; ++i) left.insert(ProcessId(i));
    for (std::uint32_t i = 4; i < 8; ++i) right.insert(ProcessId(i));
    for (int round = 0; round < 3; ++round) {
      fleet.partition({left, right});
      fleet.crash(ProcessId(7));
      fleet.merge();
      fleet.recover(ProcessId(7));
      fleet.merge();
    }
    EXPECT_EQ(RuntimeFleet::distinct_primaries(fleet.probe()), 1u);
    fleet.stop();
    summaries.push_back(fleet.outcome_summary());
  }
  ASSERT_EQ(summaries.size(), 3u);
  EXPECT_EQ(summaries[0], summaries[1]);
  EXPECT_EQ(summaries[0], summaries[2]);
}

}  // namespace
}  // namespace dynvote::runtime
