// Tests for the M:N pool runtime (src/runtime/pool_transport.*): worker
// clamping, primary formation and fault verbs through RuntimeFleet, the
// determinism contract (byte-identical outcome transcripts at ANY
// worker count, equal to the DES oracle), the same-worker fast path vs
// cross-worker handoff split visible in the probe lanes, a burst that
// spans several link segments, the partition rule, in-flight drain,
// per-handler wakeups, the fixed point quiesce() returns at and its
// not-running check on a bare transport, and a churn stress meant for
// the TSan pass (tools/run_experiments.sh wires the Runtime* prefixes
// in).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/runtime_probe.hpp"
#include "runtime/crosscheck.hpp"
#include "runtime/fleet.hpp"
#include "runtime/pool_transport.hpp"
#include "sim/message.hpp"
#include "sim/node.hpp"
#include "util/ensure.hpp"

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

  // A sparse fleet reaching the top of the id range: the dense table
  // resolves every member and names every gap.
  const std::vector<ProcessId> sparse = {ProcessId(0), ProcessId(7),
                                         ProcessId(4095),
                                         ProcessId(kProcessIdLimit - 1)};
  PoolTransport wide(sparse, /*workers=*/2);
  std::vector<const sim::StableStorage*> storages;
  for (std::uint32_t i = 0; i < sparse.size(); ++i) {
    EXPECT_EQ(wide.lane_of(sparse[i]), i % 2);
    storages.push_back(&wide.storage(sparse[i]));
  }
  std::sort(storages.begin(), storages.end());
  EXPECT_EQ(std::unique(storages.begin(), storages.end()), storages.end());
  expect_lookup_names([&] { (void)wide.storage(ProcessId(8)); },
                      "unknown runtime process p8");
  expect_lookup_names([&] { (void)wide.storage(ProcessId(5000)); },
                      "unknown runtime process p5000");
  expect_lookup_names(
      [] { PoolTransport dup({ProcessId(0), ProcessId(7), ProcessId(0)}, 1); },
      "duplicate process id");
  expect_lookup_names(
      [] { PoolTransport past({ProcessId(0), ProcessId(kProcessIdLimit)}, 1); },
      "kProcessIdLimit");

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

// --------------------------------------------------------------- probes

// One probe lane per worker plus the controller, at W = 2 and at W = n
// (one process per worker thread, so every message between processes
// is a cross-worker handoff).
TEST(RuntimePool, ProbeLogsHaveOneLanePerWorker) {
  constexpr std::uint32_t kN = 4;
  for (const std::uint32_t workers : {2u, kN}) {
    RuntimeFleet fleet(pool_options(kN, workers, /*probes=*/true));
    // Static sharding: global index mod W.
    for (std::uint32_t i = 0; i < kN; ++i) {
      EXPECT_EQ(fleet.transport().lane_of(ProcessId(i)), i % workers);
    }
    fleet.start();
    ProcessSet left;
    ProcessSet right;
    for (std::uint32_t i = 0; i < 2; ++i) left.insert(ProcessId(i));
    for (std::uint32_t i = 2; i < kN; ++i) right.insert(ProcessId(i));
    fleet.partition({left, right});
    fleet.merge();
    const std::vector<obs::ThreadProbeLog> logs = fleet.probe_logs();
    fleet.stop();

    ASSERT_EQ(logs.size(), workers + 1u);  // worker lanes + controller
    for (std::uint32_t i = 0; i < workers; ++i) {
      EXPECT_EQ(logs[i].thread, i);
    }
    EXPECT_EQ(logs.back().thread, obs::kControllerLane);
    std::uint64_t batches = 0;
    std::uint64_t run_queue = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t pops = 0;
    std::uint64_t handlers = 0;
    bool saw_eid = false;
    for (const obs::ThreadProbeLog& lane : logs) {
      for (const obs::ProbeEntry& e : lane.entries) {
        saw_eid |= e.eid != 0;
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
          case obs::ProbeKind::kLinkPop:
            ++pops;
            break;
          case obs::ProbeKind::kHandlerMessage:
            ++handlers;
            // The handling process's global index rides in `link` so
            // the Chrome export can color slices per process.
            EXPECT_LT(e.link, kN);
            break;
          default:
            break;
        }
      }
    }
    EXPECT_GT(batches, 0u) << "W=" << workers;
    EXPECT_GT(handoffs, 0u) << "W=" << workers;
    EXPECT_GT(pops, 0u) << "W=" << workers;
    EXPECT_GT(handlers, 0u) << "W=" << workers;
    EXPECT_TRUE(saw_eid) << "W=" << workers;  // entries join the causal trace
    if (workers < kN) {
      // p0<->p2 share worker 0: same-worker traffic rides the fast path.
      EXPECT_GT(run_queue, 0u);
    }
  }
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

// A link is a chain of segments, so a burst larger than one segment
// queues behind the sender without any overflow path. At n = 64 on two
// workers, a view change makes each worker's 32 processes address the
// other worker's 32 in one burst of about 1,024 messages per link, and
// the kHandoff probe (the link's length right after each push) shows a
// link holding more than one segment. The outcome must still be
// byte-identical to W = 1, where no cross-worker link exists.
TEST(RuntimePool, MultiSegmentBurstKeepsTranscriptIdentical) {
  constexpr std::uint32_t kN = 64;
  ProcessSet majority;
  ProcessSet minority;
  for (std::uint32_t i = 0; i < kN; ++i) {
    (i <= kN / 2 ? majority : minority).insert(ProcessId(i));
  }
  std::vector<std::string> summaries;
  std::uint64_t deepest = 0;
  for (const std::uint32_t workers : {2u, 1u}) {
    FleetOptions options = pool_options(kN, workers, /*probes=*/true);
    // Room for every entry of both verbs, so no handoff record is
    // overwritten before the snapshot.
    options.runtime.probe_capacity = 1 << 16;
    RuntimeFleet fleet(options);
    fleet.start();
    fleet.partition({majority, minority});
    fleet.merge();
    const std::vector<obs::ThreadProbeLog> logs = fleet.probe_logs();
    fleet.stop();
    summaries.push_back(fleet.outcome_summary());
    for (const obs::ThreadProbeLog& lane : logs) {
      for (const obs::ProbeEntry& e : lane.entries) {
        EXPECT_NE(e.kind, obs::ProbeKind::kLinkPushFailed);  // never full
        if (e.kind == obs::ProbeKind::kHandoff) {
          deepest = std::max(deepest, e.value);
        }
      }
    }
  }
  EXPECT_GT(deepest, SpscQueue<int>::kSegmentItems);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0], summaries[1]);
}

// ------------------------------------------------------ partition rule

struct Ping final : sim::MessagePayload {
  [[nodiscard]] std::string type_name() const override { return "ping"; }
  [[nodiscard]] std::size_t encoded_size() const override { return 0; }
};

/// The smallest protocol: sends pings on request and counts the messages
/// its handler sees (written on its worker; read after stop_and_join).
class CountingNode final : public sim::Node {
 public:
  using sim::Node::Node;

  void ping(ProcessId to, int times = 1) {
    const sim::PayloadPtr payload = std::make_shared<const Ping>();
    for (int i = 0; i < times; ++i) send(to, payload);
  }

  std::uint64_t handled = 0;

 protected:
  void on_view(const View&) override {}
  void on_message(ProcessId, sim::PayloadPtr) override { ++handled; }
};

/// A bare PoolTransport at W = 2 over p0..p3 — p0 and p2 on worker 0, p1
/// and p3 on worker 1 — split {p0,p1} | {p2,p3}, each side in its view.
class BarePool {
 public:
  BarePool() : transport_(make_ids(4), /*workers=*/2) {
    for (const ProcessId p : transport_.processes()) {
      nodes_.push_back(std::make_unique<CountingNode>(transport_, p));
      transport_.set_node(nodes_.back().get());
    }
    transport_.start();
    transport_.set_components({ProcessSet::of({0, 1}), ProcessSet::of({2, 3})});
    transport_.post_view(View{ViewId(1), ProcessSet::of({0, 1})});
    transport_.post_view(View{ViewId(2), ProcessSet::of({2, 3})});
    transport_.quiesce();
  }
  ~BarePool() { transport_.stop_and_join(); }

  BarePool(const BarePool&) = delete;
  BarePool& operator=(const BarePool&) = delete;

  PoolTransport& transport() { return transport_; }
  CountingNode& node(std::uint32_t p) { return *nodes_.at(p); }

  /// p's rt.* counter `name`, read on p's worker.
  std::uint64_t counter(std::uint32_t p, const std::string& name) {
    std::uint64_t value = 0;
    transport_.run_on(ProcessId(p), [this, p, &name, &value] {
      value = transport_.metrics(ProcessId(p)).counter_value(name);
    });
    transport_.quiesce();
    return value;
  }

  /// Runs node(from).ping(to, times) on from's worker, to quiescence.
  void ping(std::uint32_t from, std::uint32_t to, int times = 1) {
    transport_.run_on(ProcessId(from), [this, from, to, times] {
      node(from).ping(ProcessId(to), times);
    });
    transport_.quiesce();
  }

 private:
  PoolTransport transport_;
  std::vector<std::unique_ptr<CountingNode>> nodes_;  // id order
};

// The send-time check is the pool's whole partition rule: a send is
// dropped unless both ends are alive in the same component.
TEST(RuntimePool, SendAcrossAPartitionOrToACrashedProcessIsDropped) {
  BarePool pool;
  pool.ping(0, 2);  // across the partition (same worker: the fast path)
  EXPECT_EQ(pool.counter(0, "rt.dropped_unroutable"), 1u);
  EXPECT_EQ(pool.counter(2, "rt.delivered"), 0u);

  pool.ping(0, 1);  // inside p0's component, across workers
  EXPECT_EQ(pool.counter(1, "rt.delivered"), 1u);
  EXPECT_EQ(pool.counter(0, "rt.dropped_unroutable"), 1u);

  pool.transport().crash(ProcessId(1));
  pool.ping(0, 1);  // p0 still holds the view {p0,p1}
  EXPECT_EQ(pool.counter(0, "rt.dropped_unroutable"), 2u);
  EXPECT_EQ(pool.counter(0, "rt.sent"), 1u);

  PoolTransport& transport = pool.transport();
  transport.stop_and_join();
  EXPECT_EQ(transport.metrics(ProcessId(1)).counter_value("rt.delivered"), 1u);
  EXPECT_EQ(pool.node(1).handled, 1u);
  EXPECT_EQ(pool.node(2).handled, 0u);
}

// A topology verb quiesces first: traffic already queued when it is
// called is delivered under the old connectivity, never cut in flight.
TEST(RuntimePool, TopologyVerbDrainsInFlightTrafficFirst) {
  constexpr int kMessages = 1000;
  BarePool pool;
  PoolTransport& transport = pool.transport();
  ASSERT_NE(transport.lane_of(ProcessId(0)), transport.lane_of(ProcessId(1)));
  transport.run_on(ProcessId(0),
                   [&pool] { pool.node(0).ping(ProcessId(1), kMessages); });
  // No quiesce() in between: the verb must drain the sends itself.
  transport.set_components({ProcessSet::of({0}), ProcessSet::of({1})});
  transport.stop_and_join();

  const obs::MetricsRegistry& sender = transport.metrics(ProcessId(0));
  const obs::MetricsRegistry& receiver = transport.metrics(ProcessId(1));
  EXPECT_EQ(receiver.counter_value("rt.delivered"),
            static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(sender.counter_value("rt.dropped_unroutable"), 0u);
  EXPECT_EQ(pool.node(1).handled, static_cast<std::uint64_t>(kMessages));
}

// -------------------------------------------------------------- wakeups

struct Relay final : sim::MessagePayload {
  [[nodiscard]] std::string type_name() const override { return "relay"; }
  [[nodiscard]] std::size_t encoded_size() const override { return 0; }
};

/// Pings every other member of its view on request or on receiving a
/// Relay; counts the pings it receives (written on its worker, read by
/// the controller after quiesce()).
class FanOutNode final : public sim::Node {
 public:
  using sim::Node::Node;

  void fan_out() {
    const sim::PayloadPtr payload = std::make_shared<const Ping>();
    for (const ProcessId p : current_view()->members) {
      if (p != id()) send(p, payload);
    }
  }
  void relay_to(ProcessId to) { send(to, std::make_shared<const Relay>()); }

  std::uint64_t pings = 0;

 protected:
  void on_view(const View&) override {}
  void on_message(ProcessId, sim::PayloadPtr payload) override {
    if (dynamic_cast<const Relay*>(payload.get()) != nullptr) {
      fan_out();
    } else {
      ++pings;
    }
  }
};

// A cross-worker send only marks its destination worker; the bump comes
// when the handler returns. Each of the two handler kinds — a run_on
// closure and a message handler — sends from a parked fleet to
// processes on the other three workers, and nothing else wakes those
// workers: a path that skipped its wake would leave messages in a
// parked worker's link and quiesce() would time out. Nothing runs
// after quiesce() returns, so each count is read straight after it.
TEST(RuntimePool, EveryHandlerKindWakesTheWorkersItSentTo) {
  constexpr std::uint32_t kN = 4;
  PoolTransport transport(make_ids(kN), /*workers=*/kN);
  std::vector<std::unique_ptr<FanOutNode>> nodes;
  for (const ProcessId p : transport.processes()) {
    nodes.push_back(std::make_unique<FanOutNode>(transport, p));
    transport.set_node(nodes.back().get());
  }
  transport.start();
  transport.merge_all();
  transport.post_view(View{ViewId(1), ProcessSet::of({0, 1, 2, 3})});
  transport.quiesce();  // every worker parked
  const auto pings = [&nodes] {
    std::vector<std::uint64_t> out;
    for (const auto& node : nodes) out.push_back(node->pings);
    return out;
  };

  // A run_on closure on p0's worker.
  transport.run_on(ProcessId(0), [&nodes] { nodes[0]->fan_out(); });
  transport.quiesce();
  EXPECT_EQ(pings(), (std::vector<std::uint64_t>{0, 1, 1, 1}));

  // A message handler on p1's worker, reached from p0.
  transport.run_on(ProcessId(0),
                   [&nodes] { nodes[0]->relay_to(ProcessId(1)); });
  transport.quiesce();
  EXPECT_EQ(pings(), (std::vector<std::uint64_t>{1, 1, 2, 2}));
  transport.stop_and_join();
}

// No worker holds a timer, so the point quiesce() returns at is a fixed
// point: parked workers stay parked and run nothing until the
// controller posts again.
TEST(RuntimePool, NothingRunsAfterQuiesceUntilTheNextPost) {
  constexpr std::uint32_t kN = 4;
  PoolTransport transport(make_ids(kN), /*workers=*/2);
  std::vector<std::unique_ptr<FanOutNode>> nodes;
  for (const ProcessId p : transport.processes()) {
    nodes.push_back(std::make_unique<FanOutNode>(transport, p));
    transport.set_node(nodes.back().get());
  }
  transport.start();
  transport.merge_all();
  transport.post_view(View{ViewId(1), ProcessSet::of({0, 1, 2, 3})});
  transport.quiesce();
  transport.run_on(ProcessId(2),
                   [&nodes] { nodes[2]->relay_to(ProcessId(3)); });
  transport.quiesce();
  const auto pings = [&nodes] {
    std::vector<std::uint64_t> out;
    for (const auto& node : nodes) out.push_back(node->pings);
    return out;
  };
  const std::vector<std::uint64_t> settled = pings();
  EXPECT_EQ(settled, (std::vector<std::uint64_t>{1, 1, 1, 0}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pings(), settled);
  transport.quiesce();
  EXPECT_EQ(pings(), settled);
  transport.stop_and_join();
}

// Outside start()..stop_and_join() no worker drains a queue: quiesce()
// returns when every queue is empty and otherwise throws at once,
// naming the queue that holds items.
TEST(RuntimePool, QuiesceWhenNotRunningNamesTheQueueThatHoldsItems) {
  const auto quiesce_error = [](PoolTransport& transport) {
    try {
      transport.quiesce();
    } catch (const InvariantViolation& e) {
      return std::string(e.what());
    }
    return std::string("returned");
  };
  const auto holds = [](const std::string& queue) {
    return "runtime quiesce: the transport is not running (not started, or "
           "stopped), and " +
           queue + " holds items";
  };

  PoolTransport before(make_ids(4), /*workers=*/2);
  EXPECT_EQ(quiesce_error(before), "returned");
  before.run_on(ProcessId(1), [] {});  // p1 lives on w1
  EXPECT_NE(quiesce_error(before).find(holds("w1's control queue")),
            std::string::npos);

  PoolTransport after(make_ids(4), /*workers=*/2);
  std::vector<std::unique_ptr<FanOutNode>> nodes;
  for (const ProcessId p : after.processes()) {
    nodes.push_back(std::make_unique<FanOutNode>(after, p));
    after.set_node(nodes.back().get());
  }
  after.start();
  after.stop_and_join();
  EXPECT_FALSE(after.running());
  EXPECT_EQ(quiesce_error(after), "returned");
  after.run_on(ProcessId(2), [] {});  // p2 lives on w0
  EXPECT_NE(quiesce_error(after).find(holds("w0's control queue")),
            std::string::npos);
}

// --------------------------------------------------------------- stress

// Heavy churn at several worker counts, for the TSan pass: every verb
// runs to quiescence, so completing at all proves no lost wakeup;
// identical transcripts across W prove the scheduler left
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
