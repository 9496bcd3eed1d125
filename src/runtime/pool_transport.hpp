// PoolTransport: the real-time backend — N protocol processes
// multiplexed over a fixed pool of W worker event loops.
//
// Implements sim::Transport over actual concurrency with real monotonic
// time (microseconds since transport start). W = n runs one process per
// worker thread; W < n schedules processes cooperatively, which is what
// carries four-digit fleets in wall-clock time:
//
//  * each worker owns a static shard of processes (index mod W — no
//    migration, so every per-process structure stays single-threaded)
//    and one probe lane;
//  * cross-worker messages travel over W×W SPSC links (one per ordered
//    worker pair — SPSC holds because a process never leaves its
//    worker, and per-process-pair FIFO is preserved because all p→q
//    traffic shares the single worker(p)→worker(q) link);
//  * same-worker messages short-circuit to a plain deque run queue:
//    zero atomics on the hot path — no link cursors, no wakeup;
//  * inbound links are drained in batches (SpscQueue::pop_bulk), so a
//    burst costs one acquire refresh + one cursor publish instead of a
//    pair of fences per message;
//  * a process id indexes a dense table straight to its slot (ids are
//    below kProcessIdLimit), so routing a message costs array loads.
//
// Semantics mirror sim::Network so the DES remains a valid oracle:
//
//  * connectivity is component-based: connected(a,b) iff both alive and
//    in the same component; set_components / merge_all / crash /
//    recover reshape components exactly like Network's versions (a
//    recovering process comes back as a fresh singleton);
//  * each process has one connectivity word: its component while
//    alive, 0 while crashed. A send is dropped as unroutable unless the
//    sender's and receiver's words are equal and nonzero — the pool's
//    whole partition rule (paper section 3);
//  * the topology verbs quiesce first, so a topology change never meets
//    a message in flight. Network's link epochs, which drop traffic a
//    partition cut mid-flight, have no case to cover here;
//  * Lamport clocks advance exactly as in Network (send ticks the
//    sender, delivery merges).
//
// No backpressure: links and control queues are unbounded segment
// chains (runtime/spsc_queue.hpp), so a send or a control post never
// finds its queue full, never blocks and never retries; two workers
// flooding each other cannot deadlock.
//
// One wakeup per destination worker per handler: a cross-worker send
// only marks its destination worker, and the loop bumps each marked
// worker once when the message handler or control item returns. The
// handler finishes before its worker can park, so the deferred bump
// delays a wakeup by at most the handler's length.
//
// No reference counts on broadcasts: broadcast() moves the payload once
// into the sender's slot, filed under the view it was sent in with that
// view's members, and every envelope carries a borrowed pointer with no
// control block (sim/message.hpp, PayloadPtr). So no message touches a
// shared count, and each payload is freed on the worker that allocated
// it (or with the transport, after stop_and_join). The sender frees a
// view's payloads at one of its own view installs, once every member of
// that view has installed a newer one: each process publishes the view
// it last installed in a word of its own (release, after deliver_view
// returns), and the sender reads the members' words (acquire). That
// rests on Node::on_message's contract — a payload is read only until
// the receiver's next view install or crash — and on nothing else, so
// it holds however the controller times its posts. An envelope still in
// flight to a member that moved on carries a dangling pointer, and the
// view gate drops it unread. Unicast send() keeps owning envelopes.
//
// No timers (sim/transport.hpp): an idle worker parks on its futex
// word with no deadline, and only a producer's bump wakes it.
//
// Quiescence keeps no global count of items in flight, so the message
// path updates no counter that every worker shares. Each worker has a
// status word — odd while the loop may pop, hold or produce work,
// incremented to even (release) only after a scan of its control queue,
// inbound links and local run queue found nothing. The controller's
// quiesce() is a double-read: statuses all even, every link and control
// queue drained (SpscQueue::drained reads the two cursors), statuses
// unchanged. Any work that existed at the first read either still sits
// in a queue, is being handled by a worker whose status is odd, or
// moves a status word before the second read. Because a worker holds
// no timer, an even status means it holds no work at all, so the point
// quiesce() returns at is a true fixed point: nothing runs afterwards
// until the controller posts again.
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
// thread. Per-process observability state (trace/metrics/storage) is
// unsynchronized; the controller may touch it only through
// run_on + quiesce, or after stop_and_join.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "membership/view.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_probe.hpp"
#include "obs/trace.hpp"
#include "runtime/eventcount.hpp"
#include "runtime/spsc_queue.hpp"
#include "sim/node.hpp"
#include "sim/stable_storage.hpp"
#include "sim/transport.hpp"
#include "util/ids.hpp"
#include "util/inline_function.hpp"
#include "util/process_set.hpp"

namespace dynvote::runtime {

/// The runtime's caller-settable knobs. Links and control queues are
/// unbounded segment chains with nothing to size; the per-process trace
/// capacity is fixed in pool_transport.cpp.
struct RuntimeOptions {
  /// There is no timer wheel, so this reads 0 and cannot be set. It
  /// stays only because benchmark/adapter.cpp stamps it into its probe
  /// document; it goes with the next change to benchmark/ (ROADMAP
  /// item 3).
  static constexpr SimTime wheel_tick_us = 0;
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
  /// clamped to [1, n] (more workers than processes would idle). Every
  /// id must be distinct and below kProcessIdLimit.
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
  /// Keeps the one owning reference and sends borrowed ones (see the
  /// header comment).
  void broadcast(ProcessId from, ViewId view, const ProcessSet& members,
                 sim::PayloadPtr payload) override;
  [[nodiscard]] SimTime now() const override;
  [[nodiscard]] sim::StableStorage& storage(ProcessId p) override;
  [[nodiscard]] obs::TraceSink& trace(ProcessId p) override;
  [[nodiscard]] obs::MetricsRegistry& metrics(ProcessId p) override;
  std::uint64_t lamport_tick(ProcessId p) override;
  [[nodiscard]] std::uint64_t last_topology_eid(ProcessId p) const override;

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

  /// Topology mirrors of sim::Network. Each one first quiesces a running
  /// transport, so no message is in flight when connectivity changes.
  /// Crashed processes may be listed; they stay crashed, and their
  /// assignment is dropped (recover() makes a fresh singleton anyway).
  void set_components(const std::vector<ProcessSet>& groups);
  void merge_all();
  /// Runs node->crash() on p's worker and disconnects p — exactly
  /// Simulator::crash + Network::set_alive(p, false). Its component is
  /// not kept: no one can observe it before recover() replaces it.
  void crash(ProcessId p);
  /// Runs node->recover() on p's worker and reconnects p as a fresh
  /// singleton component — Network::set_alive(p, true).
  void recover(ProcessId p);
  [[nodiscard]] bool alive(ProcessId p) const;
  /// Components with dead members filtered out, sorted by smallest
  /// member — the shape ViewAnnouncer::announce consumes.
  [[nodiscard]] std::vector<ProcessSet> live_components() const;

  /// Enqueues deliver_view(view) on every member's worker (the runtime
  /// analogue of the oracle's per-member scheduled delivery).
  void post_view(const View& view);

  /// Runs `fn` on p's worker (state probes; effects are visible to the
  /// controller after the next quiesce()).
  void run_on(ProcessId p, InlineFunction<void()> fn);

  /// Blocks until no message, control item or handler is in flight
  /// anywhere — the real-time analogue of the simulator's settle().
  /// On a transport that is not running (not started, or stopped) no
  /// worker can drain a queue, so it throws InvariantViolation at once,
  /// naming a queue that holds items, unless every queue is empty.
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
    ProcessId target;           // the process this item addresses
    View view;                  // kView
    InlineFunction<void()> fn;  // kRun
    std::uint64_t sent_ns = 0;  // push timestamp, 0 unless probes are on
  };

  struct PoolItem {
    sim::Envelope env;
    std::uint64_t sent_ns = 0;  // enqueue timestamp, 0 unless probes are on
  };

  /// The payloads one process broadcast in one view, with that view's
  /// members: the only owning references to them.
  struct SentView {
    ViewId view;
    ProcessSet members;
    std::vector<sim::PayloadPtr> payloads;
  };

  /// One protocol process: everything single-threaded on its worker
  /// except the connectivity and installed-view words at the bottom.
  struct Slot {
    ProcessId id;
    std::size_t index = 0;     // global index (position in processes())
    std::uint32_t worker = 0;  // static shard assignment (index % W)
    sim::Node* node = nullptr;
    obs::TraceSink trace;
    obs::MetricsRegistry metrics;
    /// The rt.* counters of `metrics`, resolved once because the send
    /// and delivery paths bump them per message (map nodes are stable,
    /// and MetricsRegistry::reset zeroes them in place).
    obs::Counter& sent;
    obs::Counter& delivered;
    obs::Counter& dropped_unroutable;
    sim::StableStorage storage;
    std::uint64_t lamport = 0;        // worker-owned
    std::uint64_t last_topo_eid = 0;  // worker-owned
    /// This process's broadcast payloads not yet freed, oldest view
    /// first (worker-owned).
    std::vector<SentView> sent_views;
    /// The component while alive, 0 while crashed. The controller is the
    /// only writer (release); senders read both ends' words (acquire).
    std::atomic<std::uint32_t> connectivity{0};
    /// The id of the view this process last installed. Its worker is the
    /// only writer (release, after deliver_view returns); the workers of
    /// processes that broadcast to it read it at their own installs
    /// (acquire). On a cache line of its own: next to the per-message
    /// fields above it would bounce with every delivery.
    alignas(kCacheLineSize) std::atomic<std::uint64_t> installed_view{0};

    Slot(ProcessId pid, std::size_t idx, std::uint32_t w);
  };

  /// One event loop. Fields below `thread` are worker-owned unless
  /// noted; the controller reads `status` for the quiesce double-read.
  struct Worker {
    std::uint32_t index = 0;
    std::thread thread;
    /// The worker's futex word: producers bump-and-notify after
    /// pushing (senders once per handler, see `wake`), the loop re-reads
    /// it before parking (runtime/eventcount.hpp; no mutex anywhere on
    /// the message path).
    RuntimeEventcount work;
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
    SpscQueue<ControlItem> control;
    /// Same-worker fast path: plain FIFO, zero atomics.
    std::deque<PoolItem> local;
    /// Destination workers this worker's current handler pushed to, each
    /// listed once (`marked` is indexed by worker); wake_marked() bumps
    /// them when the handler returns.
    std::vector<std::uint32_t> wake;
    std::vector<std::uint8_t> marked;
    /// pop_bulk scratch, reused so the steady-state drain allocates
    /// nothing.
    std::vector<PoolItem> batch;
    /// Global indices of the slots this worker owns, in id order.
    std::vector<std::size_t> owned;

    Worker(std::uint32_t idx, std::uint32_t num_workers,
           const RuntimeOptions& options);
  };

  [[nodiscard]] Slot& slot(ProcessId p);
  [[nodiscard]] const Slot& slot(ProcessId p) const;
  [[nodiscard]] std::size_t index_of(ProcessId p) const;

  /// The worker(src)→worker(dst) data link.
  [[nodiscard]] SpscQueue<PoolItem>& link(std::uint32_t src,
                                          std::uint32_t dst) {
    return links_[src * workers_.size() + dst];
  }

  /// The first link or control queue that holds items, named for an
  /// error message ("link w0->w1", "w2's control queue"); empty iff
  /// every queue is drained. quiesce's check: exact only while no worker
  /// runs, which the double-read around it establishes.
  [[nodiscard]] std::string undrained_queue() const;

  /// send()'s body once the sender's slot is known; broadcast() calls it
  /// per member.
  void route(Slot& from, sim::Envelope&& env);
  /// Frees `s`'s broadcast payloads of every view whose members have all
  /// installed a newer one; runs on s's worker at each of its installs.
  void release_payloads(Slot& s);

  void post_control(ProcessId p, ControlItem item);
  void bump_work(Worker& target);
  /// Bumps every worker `me`'s last handler pushed to, once each.
  void wake_marked(Worker& me);

  void worker_main(Worker& me);
  void handle_control(Worker& me, ControlItem& item);
  void handle_message(Worker& me, PoolItem& item, std::uint16_t source_lane);

  /// index_of's "no such process" entry.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  RuntimeOptions options_;
  std::vector<ProcessId> ids_;
  /// Raw id -> global index (kNoSlot for an id not in the fleet); sized
  /// to the largest id + 1, at most 4 MiB under kProcessIdLimit.
  std::vector<std::uint32_t> slot_direct_;
  std::vector<std::unique_ptr<Slot>> slots_;    // stable addresses, id order
  std::vector<std::unique_ptr<Worker>> workers_;  // stable addresses
  std::unique_ptr<SpscQueue<PoolItem>[]> links_;  // W×W
  /// Controller thread's probe ring (control-queue pushes); null when
  /// probes are off.
  std::unique_ptr<obs::ProbeRing> controller_probe_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  bool joined_ = false;
  std::uint32_t next_component_ = 1;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace dynvote::runtime
