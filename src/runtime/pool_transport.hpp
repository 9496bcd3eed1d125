// PoolTransport: the real-time backend — N protocol processes
// multiplexed over a fixed pool of W worker event loops.
//
// Implements sim::Transport over actual concurrency with real monotonic
// time (microseconds since transport start). W = n runs one process per
// worker thread; W < n schedules processes cooperatively, which is what
// carries four-digit fleets in wall-clock time:
//
//  * each worker owns a static shard of processes (index mod W — no
//    migration, so every per-process structure stays single-threaded),
//    one merged timer wheel, and one probe lane;
//  * cross-worker messages travel over W×W SPSC rings (one per ordered
//    worker pair — SPSC holds because a process never leaves its
//    worker, and per-process-pair FIFO is preserved because all p→q
//    traffic shares the single worker(p)→worker(q) ring);
//  * same-worker messages short-circuit to a plain deque run queue:
//    zero atomics on the hot path — no ring cursors, no inflight
//    counter, no eventcount bump;
//  * inbound rings are drained in batches (SpscQueue::pop_bulk), so a
//    burst costs one acquire refresh + one cursor publish + one wakeup
//    instead of a pair of fences per message.
//
// Semantics mirror sim::Network so the DES remains a valid oracle:
//
//  * connectivity is component-based: connected(a,b) iff both alive and
//    in the same component; set_components / merge_all / crash /
//    recover reshape components exactly like Network's versions (a
//    recovering process comes back as a fresh singleton);
//  * every pair carries a link epoch, bumped on each disconnection; a
//    message is stamped with the epoch at send and dropped at delivery
//    if the link's epoch moved — a partition loses in-flight traffic
//    (paper section 3);
//  * Lamport clocks advance exactly as in Network (send ticks the
//    sender, delivery merges).
//
// Backpressure without deadlock: a full cross-worker ring never blocks
// the sender (two workers spinning on each other's full rings would
// deadlock). Instead the item goes to a per-destination spill deque,
// flushed FIFO at the top of every loop iteration; once a destination
// has spilled items, new sends to it append behind them, preserving
// order. A worker with pending spill parks bounded (it must retry the
// flush; ring drains are not notified back to the producer).
//
// Quiescence: cross-worker and control items are counted in a global
// inflight counter (++ before push, -- after the handler). Local-queue
// items are deliberately NOT counted (the fast path stays atomic-free);
// soundness comes from a per-worker status word — odd while the loop
// may hold or produce local work, incremented to even only after a scan
// found nothing. The controller's quiesce() is a double-read: statuses
// all even, inflight zero, statuses unchanged. Any work that existed at
// the first read either shows in inflight (ring/control items) or
// forces its worker odd / onto a new status value (local items) before
// the second read.
//
// Determinism: for the protocols whose phase structure waits on ALL
// view members (the cross-check allow-list), per-process outcome
// transcripts are arrival-order independent, so outcome digests are
// byte-identical at ANY worker count and equal to the DES oracle's.
// runtime/crosscheck.hpp enforces this on every seeded scenario.
//
// Threading contract: the Transport surface is called only from the
// worker that owns the acting process (the sim::Node handlers run
// there); the controller surface (lifecycle, topology, post_view,
// run_on, quiesce, probe snapshots) only from the single controlling
// thread. Per-process observability state (trace/metrics/storage/
// logger) is unsynchronized; the controller may touch it only through
// run_on + quiesce, or after stop_and_join.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "membership/view.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_probe.hpp"
#include "obs/trace.hpp"
#include "runtime/eventcount.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/timer_wheel.hpp"
#include "sim/node.hpp"
#include "sim/stable_storage.hpp"
#include "sim/transport.hpp"
#include "util/ids.hpp"
#include "util/log.hpp"
#include "util/process_set.hpp"

namespace dynvote::runtime {

/// The runtime's caller-settable knobs. Ring, control-queue and trace
/// capacities and the log level are fixed in pool_transport.cpp: the
/// pool sizes its queues from the shard size.
struct RuntimeOptions {
  /// Timer-wheel slot granularity, microseconds.
  SimTime wheel_tick_us = 1024;
  /// Wall-clock probe rings (obs/runtime_probe.hpp). Off by default;
  /// when off no ring exists and every record site is a single branch
  /// on a null pointer.
  bool probes = false;
  /// Per-lane probe-ring capacity (entries, rounded up to a power of
  /// two); older entries are overwritten in place. The default (256KB
  /// per lane) retains several bench runs' worth of events; keeping it
  /// modest also keeps the probes-on fleet construction cost inside
  /// the <5% overhead budget under sanitizer builds, where large
  /// allocations carry per-byte poisoning cost.
  std::size_t probe_capacity = 1 << 13;
};

class PoolTransport final : public sim::Transport {
 public:
  /// `workers` = 0 picks hardware_concurrency; the count is always
  /// clamped to [1, n] (more workers than processes would idle).
  PoolTransport(const std::vector<ProcessId>& processes,
                std::uint32_t workers, RuntimeOptions options = {});
  ~PoolTransport() override;

  PoolTransport(const PoolTransport&) = delete;
  PoolTransport& operator=(const PoolTransport&) = delete;

  [[nodiscard]] std::uint32_t workers() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }

  // -- Transport surface (worker-thread side) -------------------------------

  void send(sim::Envelope env) override;
  [[nodiscard]] SimTime now() const override;
  sim::TimerToken schedule_timer(ProcessId p, SimTime delay,
                                 sim::TimerAction action) override;
  bool cancel_timer(ProcessId p, sim::TimerToken token) override;
  [[nodiscard]] sim::StableStorage& storage(ProcessId p) override;
  [[nodiscard]] obs::TraceSink& trace(ProcessId p) override;
  [[nodiscard]] obs::MetricsRegistry& metrics(ProcessId p) override;
  std::uint64_t lamport_tick(ProcessId p) override;
  [[nodiscard]] std::uint64_t last_topology_eid(ProcessId p) const override;
  void log(ProcessId p, LogLevel level, const std::string& message) override;

  // -- controller surface ---------------------------------------------------

  /// Attaches the node that runs on `node->id()`'s worker. All nodes
  /// must be attached before start(); borrowed, must outlive stop.
  void set_node(sim::Node* node);

  /// Spawns the worker threads. One lifecycle per transport.
  void start();

  /// Signals every worker to finish its remaining work and exit, then
  /// joins them. Safe to call twice; the destructor calls it.
  void stop_and_join();

  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Topology mirrors of sim::Network (call at quiescence only).
  void set_components(const std::vector<ProcessSet>& groups);
  void merge_all();
  /// Runs node->crash() on p's worker and disconnects p (epoch bumps
  /// lose its in-flight traffic), keeping its component assignment —
  /// exactly Simulator::crash + Network::set_alive(p, false).
  void crash(ProcessId p);
  /// Runs node->recover() on p's worker and reconnects p as a fresh
  /// singleton component — Network::set_alive(p, true).
  void recover(ProcessId p);
  [[nodiscard]] bool alive(ProcessId p) const;
  /// Components with dead members filtered out, sorted by smallest
  /// member — the shape MembershipOracle consumes.
  [[nodiscard]] std::vector<ProcessSet> live_components() const;

  /// Enqueues deliver_view(view) on every member's worker (the runtime
  /// analogue of the oracle's per-member scheduled delivery).
  void post_view(const View& view);

  /// Runs `fn` on p's worker (state probes; effects are visible to the
  /// controller after the next quiesce()).
  void run_on(ProcessId p, sim::TimerAction fn);

  /// Blocks until no message, control item or handler is in flight
  /// anywhere — the real-time analogue of the simulator's settle().
  void quiesce();

  [[nodiscard]] const std::vector<ProcessId>& processes() const noexcept {
    return ids_;
  }

  // -- probe surface --------------------------------------------------------

  /// Probe lanes excluding the controller: one per worker.
  [[nodiscard]] std::size_t lanes() const noexcept { return workers_.size(); }
  /// The probe lane that records p's handlers: p's worker.
  [[nodiscard]] std::uint32_t lane_of(ProcessId p) const {
    return slot(p).worker;
  }
  /// Snapshot of every probe ring: one log per worker (thread = worker
  /// index, copied on the owning worker via run_on + quiesce while
  /// running) plus the controller lane (thread = obs::kControllerLane).
  /// Empty when probes are off.
  [[nodiscard]] std::vector<obs::ThreadProbeLog> snapshot_probe_logs();
  /// Nanoseconds since transport start — the probe timestamp clock,
  /// 1000x finer than now() on the same epoch.
  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_time_)
            .count());
  }

 private:
  struct ControlItem {
    enum class Kind : std::uint8_t { kNone, kView, kCrash, kRecover, kRun };
    Kind kind = Kind::kNone;
    ProcessId target;     // the process this item addresses
    View view;            // kView
    sim::TimerAction fn;  // kRun
    std::uint64_t sent_ns = 0;  // push timestamp, 0 unless probes are on
  };

  struct PoolItem {
    sim::Envelope env;
    std::uint64_t epoch = 0;    // link epoch at send
    std::uint64_t sent_ns = 0;  // enqueue timestamp, 0 unless probes are on
  };

  /// One protocol process: everything single-threaded on its worker
  /// except the controller-side bookkeeping at the bottom.
  struct Slot {
    ProcessId id;
    std::size_t index = 0;     // global index (pair_state row)
    std::uint32_t worker = 0;  // static shard assignment (index % W)
    sim::Node* node = nullptr;
    obs::TraceSink trace;
    obs::MetricsRegistry metrics;
    sim::StableStorage storage;
    Logger logger;
    std::uint64_t lamport = 0;        // worker-owned
    std::uint64_t last_topo_eid = 0;  // worker-owned
    /// Controller-side bookkeeping (controller thread only).
    std::uint32_t component = 0;
    bool ctl_alive = true;

    Slot(ProcessId pid, std::size_t idx, std::uint32_t w);
  };

  /// One event loop. Fields below `thread` are worker-owned unless
  /// noted; the controller reads `status` for the quiesce double-read.
  struct Worker {
    std::uint32_t index = 0;
    std::thread thread;
    /// The worker's futex word: producers bump-and-notify after
    /// pushing, the loop re-reads it before parking
    /// (runtime/eventcount.hpp; no mutex anywhere on the message path).
    RuntimeEventcount work;
    TimerWheel wheel;
    std::unique_ptr<obs::ProbeRing> probe;
    /// Wall-clock stamp of the latest bump aimed at this worker (probes
    /// only; relaxed — feeds a latency estimate, not ordering).
    std::atomic<std::uint64_t> notify_ns{0};
    /// Quiesce word: odd = the loop may hold or produce local work,
    /// even = parked after a scan that found nothing. Every transition
    /// increments, so the controller's double-read catches any activity
    /// between its two looks.
    std::atomic<std::uint64_t> status{1};
    /// Items handled since start (single writer: this worker; relaxed).
    /// quiesce() re-arms its stuck-handler timeout while this advances,
    /// so the timeout measures stall, not total work: a large fleet
    /// grinding through an O(n^2)-message formation on few cores is
    /// progress, a handler spinning forever is not.
    std::atomic<std::uint64_t> progress{0};
    std::unique_ptr<SpscQueue<ControlItem>> control;
    /// Same-worker fast path: plain FIFO, zero atomics.
    std::deque<PoolItem> local;
    /// Per-destination-worker overflow for full cross rings (the
    /// no-deadlock guarantee: senders never block).
    std::vector<std::deque<PoolItem>> spill;
    std::size_t spilled = 0;  // total items across spill deques
    /// pop_bulk scratch, reused so the steady-state drain allocates
    /// nothing.
    std::vector<PoolItem> batch;
    /// Global indices of the slots this worker owns, in id order.
    std::vector<std::size_t> owned;

    Worker(std::uint32_t idx, std::uint32_t num_workers,
           const RuntimeOptions& options, std::size_t control_capacity);
  };

  [[nodiscard]] Slot& slot(ProcessId p);
  [[nodiscard]] const Slot& slot(ProcessId p) const;
  [[nodiscard]] std::size_t index_of(ProcessId p) const;

  /// The worker(src)→worker(dst) data ring.
  [[nodiscard]] SpscQueue<PoolItem>& ring(std::uint32_t src,
                                          std::uint32_t dst) {
    return *rings_[src * workers_.size() + dst];
  }

  /// pair_state_[a*n+b]: (epoch << 1) | connected. Controller writes
  /// (release), workers read (acquire).
  [[nodiscard]] std::atomic<std::uint64_t>& pair_state(std::size_t a,
                                                       std::size_t b) {
    return pair_state_[a * ids_.size() + b];
  }
  [[nodiscard]] const std::atomic<std::uint64_t>& pair_state(
      std::size_t a, std::size_t b) const {
    return pair_state_[a * ids_.size() + b];
  }
  /// Recomputes connectivity from components + liveness, bumping the
  /// epoch of every pair that transitions connected -> disconnected.
  void refresh_connectivity();

  void post_control(ProcessId p, ControlItem item);
  void bump_work(Worker& target);

  void worker_main(Worker& me);
  /// Pushes as much pending spill as the rings accept; true if any
  /// item moved.
  bool flush_spills(Worker& me);
  void handle_control(Worker& me, ControlItem& item);
  void handle_message(Worker& me, PoolItem& item, std::uint16_t source_lane);

  RuntimeOptions options_;
  std::vector<ProcessId> ids_;
  /// (id, index) sorted by id — O(log n) lookup on the send path.
  std::vector<std::pair<ProcessId, std::size_t>> lookup_;
  std::vector<std::unique_ptr<Slot>> slots_;    // stable addresses, id order
  std::vector<std::unique_ptr<Worker>> workers_;  // stable addresses
  std::vector<std::unique_ptr<SpscQueue<PoolItem>>> rings_;  // W×W
  /// Controller thread's probe ring (control-queue pushes); null when
  /// probes are off.
  std::unique_ptr<obs::ProbeRing> controller_probe_;
  std::vector<std::atomic<std::uint64_t>> pair_state_;
  std::atomic<std::int64_t> inflight_{0};
  std::atomic<bool> stop_{false};
  bool running_ = false;
  bool joined_ = false;
  std::uint32_t next_component_ = 1;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace dynvote::runtime
