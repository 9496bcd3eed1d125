#include "runtime/pool_transport.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/ensure.hpp"

namespace dynvote::runtime {

namespace {
constexpr auto kQuiesceTimeout = std::chrono::seconds(60);
/// Per-process trace-ring capacity. Bounded so long benches don't grow
/// trace memory without limit; far above any cross-check scenario's
/// event count, so digests are unaffected.
constexpr std::size_t kTraceCapacity = 65536;
}  // namespace

PoolTransport::Slot::Slot(ProcessId pid, std::size_t idx, std::uint32_t w)
    : id(pid),
      index(idx),
      worker(w),
      sent(metrics.counter("rt.sent")),
      delivered(metrics.counter("rt.delivered")),
      dropped_unroutable(metrics.counter("rt.dropped_unroutable")) {
  trace.set_capacity(kTraceCapacity);
}

PoolTransport::Worker::Worker(std::uint32_t idx, std::uint32_t num_workers,
                              const RuntimeOptions& options)
    : index(idx), marked(num_workers, 0) {
  wake.reserve(num_workers);
  if (options.probes) {
    probe = std::make_unique<obs::ProbeRing>(options.probe_capacity);
  }
}

PoolTransport::PoolTransport(const std::vector<ProcessId>& processes,
                             std::uint32_t workers, RuntimeOptions options)
    : options_(options),
      ids_(processes),
      start_time_(std::chrono::steady_clock::now()) {
  ensure(!ids_.empty(), "runtime transport needs at least one process");
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const std::uint32_t raw = ids_[i].value();
    if (raw >= kProcessIdLimit) {
      invariant_failed("runtime process " + to_string(ids_[i]) +
                       " is not below kProcessIdLimit (2^20)");
    }
    if (raw >= slot_direct_.size()) slot_direct_.resize(raw + 1, kNoSlot);
    ensure(slot_direct_[raw] == kNoSlot, "duplicate process id");
    slot_direct_[raw] = static_cast<std::uint32_t>(i);
  }

  std::uint32_t w = workers;
  if (w == 0) w = std::max(1u, std::thread::hardware_concurrency());
  w = static_cast<std::uint32_t>(
      std::min<std::size_t>(w, ids_.size()));  // extra workers would idle

  for (std::size_t i = 0; i < ids_.size(); ++i) {
    slots_.push_back(
        std::make_unique<Slot>(ids_[i], i, static_cast<std::uint32_t>(i % w)));
    // Everyone starts alive in a singleton component, like Network.
    slots_.back()->connectivity.store(next_component_++,
                                      std::memory_order_relaxed);
  }

  for (std::uint32_t wi = 0; wi < w; ++wi) {
    workers_.push_back(std::make_unique<Worker>(wi, w, options_));
  }
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    workers_[i % w]->owned.push_back(i);
  }
  links_ = std::make_unique<SpscQueue<PoolItem>[]>(std::size_t{w} * w);

  if (options_.probes) {
    controller_probe_ =
        std::make_unique<obs::ProbeRing>(options_.probe_capacity);
  }
}

PoolTransport::~PoolTransport() { stop_and_join(); }

std::size_t PoolTransport::index_of(ProcessId p) const {
  const std::uint32_t raw = p.value();
  const std::uint32_t index =
      raw < slot_direct_.size() ? slot_direct_[raw] : kNoSlot;
  if (index == kNoSlot) [[unlikely]] {
    invariant_failed("unknown runtime process " + to_string(p));
  }
  return index;
}

PoolTransport::Slot& PoolTransport::slot(ProcessId p) {
  return *slots_[index_of(p)];
}

const PoolTransport::Slot& PoolTransport::slot(ProcessId p) const {
  return *slots_[index_of(p)];
}

// -- Transport surface ------------------------------------------------------

void PoolTransport::send(sim::Envelope env) {
  Slot& from = *slots_[index_of(env.from)];
  const std::size_t ti = index_of(env.to);
  Slot& to = *slots_[ti];
  const std::uint32_t component =
      from.connectivity.load(std::memory_order_acquire);
  if (component == 0 ||
      to.connectivity.load(std::memory_order_acquire) != component) {
    // Not connected at send time: silently lost, like Network's
    // unroutable/filtered drop. Topology verbs run only at quiescence,
    // so a message that passes this check is never cut in flight.
    from.dropped_unroutable.increment();
    return;
  }
  env.lamport = ++from.lamport;
  from.sent.increment();

  Worker& me = *workers_[from.worker];  // we are executing on this thread
  obs::ProbeRing* const probe = me.probe.get();
  const std::uint64_t sent_ns = probe ? now_ns() : 0;
  PoolItem item{std::move(env), sent_ns};

  if (to.worker == from.worker) {
    // Same-worker fast path: a plain deque append, zero atomics. The
    // loop drains `local` before parking, so no wakeup is needed, and
    // the quiesce protocol covers it through the worker status word.
    me.local.push_back(std::move(item));
    if (probe) {
      probe->record(obs::ProbeKind::kRunQueue, sent_ns, me.local.size(),
                    static_cast<std::uint16_t>(me.index),
                    from.trace.last_eid());
    }
    return;
  }

  SpscQueue<PoolItem>& out = link(from.worker, to.worker);
  out.push(std::move(item));
  if (probe) {
    probe->record(obs::ProbeKind::kHandoff, now_ns(), out.producer_size(),
                  static_cast<std::uint16_t>(to.worker),
                  from.trace.last_eid());
  }
  // The wakeup waits for the handler to return (wake_marked), so a
  // broadcast bumps each destination worker once.
  if (me.marked[to.worker] == 0) {
    me.marked[to.worker] = 1;
    me.wake.push_back(to.worker);
  }
}

SimTime PoolTransport::now() const {
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

sim::StableStorage& PoolTransport::storage(ProcessId p) {
  return slot(p).storage;
}

obs::TraceSink& PoolTransport::trace(ProcessId p) { return slot(p).trace; }

obs::MetricsRegistry& PoolTransport::metrics(ProcessId p) {
  return slot(p).metrics;
}

std::uint64_t PoolTransport::lamport_tick(ProcessId p) {
  return ++slot(p).lamport;
}

std::uint64_t PoolTransport::last_topology_eid(ProcessId p) const {
  return slot(p).last_topo_eid;
}

// -- controller surface -----------------------------------------------------

void PoolTransport::set_node(sim::Node* node) {
  ensure(node != nullptr, "null node");
  ensure(!running_, "set_node after start");
  Slot& s = slot(node->id());
  ensure(s.node == nullptr, "node attached twice");
  s.node = node;
}

void PoolTransport::start() {
  ensure(!running_ && !joined_, "one lifecycle per transport");
  for (auto& s : slots_) {
    if (s->node == nullptr) {
      invariant_failed("process " + to_string(s->id) + " has no node attached");
    }
  }
  running_ = true;
  for (auto& w : workers_) {
    Worker& me = *w;
    me.thread = std::thread([this, &me] { worker_main(me); });
  }
}

void PoolTransport::stop_and_join() {
  if (joined_) return;
  joined_ = true;
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) bump_work(*w);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  running_ = false;
}

void PoolTransport::set_components(const std::vector<ProcessSet>& groups) {
  if (running_) quiesce();
  ProcessSet seen;
  for (const ProcessSet& group : groups) {
    ensure(!group.empty(), "empty component");
    for (ProcessId p : group) {
      ensure(!seen.contains(p), "components must be disjoint");
      seen.insert(p);
    }
    const std::uint32_t component = next_component_++;
    for (ProcessId p : group) {
      // Crashed members stay at 0.
      if (alive(p)) {
        slot(p).connectivity.store(component, std::memory_order_release);
      }
    }
  }
}

void PoolTransport::merge_all() {
  ProcessSet all;
  for (ProcessId p : ids_) all.insert(p);
  set_components({all});
}

void PoolTransport::crash(ProcessId p) {
  if (!alive(p)) return;
  if (running_) quiesce();
  post_control(p, ControlItem{ControlItem::Kind::kCrash, p, {}, {}});
  slot(p).connectivity.store(0, std::memory_order_release);
}

void PoolTransport::recover(ProcessId p) {
  if (alive(p)) return;
  if (running_) quiesce();
  post_control(p, ControlItem{ControlItem::Kind::kRecover, p, {}, {}});
  // A fresh singleton component.
  slot(p).connectivity.store(next_component_++, std::memory_order_release);
}

bool PoolTransport::alive(ProcessId p) const {
  // The controller is the only writer: a relaxed read sees its own
  // latest store.
  return slot(p).connectivity.load(std::memory_order_relaxed) != 0;
}

std::vector<ProcessSet> PoolTransport::live_components() const {
  std::map<std::uint32_t, ProcessSet> by_component;
  for (const auto& s : slots_) {
    const std::uint32_t component =
        s->connectivity.load(std::memory_order_relaxed);
    if (component != 0) by_component[component].insert(s->id);
  }
  std::vector<ProcessSet> components;
  components.reserve(by_component.size());
  for (auto& [component, members] : by_component) {
    components.push_back(std::move(members));
  }
  // Network::live_components orders by smallest member; ViewAnnouncer
  // assigns view ids in this order, so both backends must list alike.
  std::sort(components.begin(), components.end(),
            [](const ProcessSet& a, const ProcessSet& b) {
              return *a.begin() < *b.begin();
            });
  return components;
}

void PoolTransport::post_view(const View& view) {
  for (ProcessId p : view.members) {
    post_control(p, ControlItem{ControlItem::Kind::kView, p, view, {}});
  }
}

void PoolTransport::run_on(ProcessId p, InlineFunction<void()> fn) {
  ensure(static_cast<bool>(fn), "run_on with empty closure");
  post_control(p, ControlItem{ControlItem::Kind::kRun, p, {}, std::move(fn)});
}

void PoolTransport::quiesce() {
  if (!running_) {
    // No worker runs to drain a queue, so waiting could only end in the
    // timeout below.
    const std::string queue = undrained_queue();
    if (!queue.empty()) {
      invariant_failed("runtime quiesce: the transport is not running (not "
                       "started, or stopped), and " +
                       queue + " holds items");
    }
    return;
  }
  // The timeout detects a wedge (a handler stuck in a loop), not a busy
  // run: it re-arms whenever any worker's handled-item count advances,
  // so a wide fleet grinding through an O(n^2)-message formation on one
  // core drains eventually, while 60s of zero progress still aborts.
  auto give_up = std::chrono::steady_clock::now() + kQuiesceTimeout;
  std::vector<std::uint64_t> seen(workers_.size(), ~std::uint64_t{0});
  const auto observe_progress = [this, &give_up, &seen] {
    bool moved = false;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const std::uint64_t p =
          workers_[i]->progress.load(std::memory_order_relaxed);
      if (p != seen[i]) {
        seen[i] = p;
        moved = true;
      }
    }
    if (moved) give_up = std::chrono::steady_clock::now() + kQuiesceTimeout;
  };
  // Double-read over the worker status words. A worker pops and handles
  // items only while its status is odd, and publishes even (release)
  // only after a scan of its control queue, links and local run queue
  // found nothing. So "all even, every queue drained, statuses
  // unchanged" is a global fixed point: between the two reads no worker
  // ran, so the queues could not change under the drained checks, and a
  // status seen even means its worker's local queue was empty and its
  // pushes are visible.
  std::vector<std::uint64_t> first(workers_.size());
  while (true) {
    observe_progress();
    ensure(std::chrono::steady_clock::now() < give_up,
           "runtime quiesce timeout (a handler is stuck?)");
    bool all_even = true;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      first[i] = workers_[i]->status.load(std::memory_order_acquire);
      all_even = all_even && (first[i] % 2 == 0);
    }
    if (!all_even || !undrained_queue().empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    bool stable = true;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      stable = stable &&
               workers_[i]->status.load(std::memory_order_acquire) == first[i];
    }
    if (stable) return;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

// -- internals --------------------------------------------------------------

std::string PoolTransport::undrained_queue() const {
  const std::size_t w = workers_.size();
  for (std::size_t i = 0; i < w * w; ++i) {
    if (!links_[i].drained()) {
      return "link " + obs::lane_name(static_cast<std::uint32_t>(i / w)) +
             "->" + obs::lane_name(static_cast<std::uint32_t>(i % w));
    }
  }
  for (const auto& worker : workers_) {
    if (!worker->control.drained()) {
      return obs::lane_name(worker->index) + "'s control queue";
    }
  }
  return {};
}

void PoolTransport::post_control(ProcessId p, ControlItem item) {
  Worker& target = *workers_[slot(p).worker];
  if (controller_probe_) item.sent_ns = now_ns();
  target.control.push(std::move(item));
  if (controller_probe_) {
    controller_probe_->record(obs::ProbeKind::kControlPush, now_ns(),
                              target.control.producer_size(),
                              static_cast<std::uint16_t>(target.index), 0);
  }
  bump_work(target);
}

void PoolTransport::bump_work(Worker& target) {
  if (target.probe) {
    target.notify_ns.store(now_ns(), std::memory_order_relaxed);
  }
  target.work.notify();
}

void PoolTransport::wake_marked(Worker& me) {
  for (const std::uint32_t dst : me.wake) {
    me.marked[dst] = 0;
    bump_work(*workers_[dst]);
  }
  me.wake.clear();
}

void PoolTransport::worker_main(Worker& me) {
  ControlItem control;
  obs::ProbeRing* const probe = me.probe.get();
  const std::uint32_t num_workers =
      static_cast<std::uint32_t>(workers_.size());
  // Single-writer publish of the handled-item count (see Worker::progress);
  // a relaxed store per item, no RMW.
  std::uint64_t done = 0;
  const auto note_progress = [&me, &done] {
    me.progress.store(++done, std::memory_order_relaxed);
  };
  while (true) {
    // Read the eventcount before scanning: any push that lands after
    // this read also bumps the word, so the wait below cannot miss it.
    const std::uint32_t seq = me.work.prepare();
    bool did_work = false;
    while (me.control.try_pop(control)) {
      if (probe) {
        const std::uint64_t t = now_ns();
        probe->record(obs::ProbeKind::kControlPop, t,
                      t > control.sent_ns ? t - control.sent_ns : 0,
                      obs::kControllerLane, 0);
        const std::uint16_t pi =
            static_cast<std::uint16_t>(index_of(control.target));
        handle_control(me, control);
        probe->record(obs::ProbeKind::kHandlerControl, t, now_ns() - t, pi,
                      slots_[pi]->trace.last_eid());
      } else {
        handle_control(me, control);
      }
      wake_marked(me);
      note_progress();
      did_work = true;
    }
    for (std::uint32_t src = 0; src < num_workers; ++src) {
      if (src == me.index) continue;
      SpscQueue<PoolItem>& in = link(src, me.index);
      // Batched drain: the whole burst costs one acquire refresh and
      // one cursor publish instead of a pair per message.
      while (in.pop_bulk(me.batch, SpscQueue<PoolItem>::kSegmentItems) > 0) {
        if (probe) {
          probe->record(obs::ProbeKind::kBatch, now_ns(), me.batch.size(),
                        static_cast<std::uint16_t>(src), 0);
        }
        for (PoolItem& item : me.batch) {
          handle_message(me, item, static_cast<std::uint16_t>(src));
          wake_marked(me);
          note_progress();
        }
        me.batch.clear();
        did_work = true;
      }
    }
    // Local run queue last: handlers above may have appended to it, and
    // handlers below may too — the loop drains to empty, preserving
    // FIFO.
    while (!me.local.empty()) {
      PoolItem item = std::move(me.local.front());
      me.local.pop_front();
      handle_message(me, item, static_cast<std::uint16_t>(me.index));
      wake_marked(me);
      note_progress();
      did_work = true;
    }
    if (did_work) continue;
    if (stop_.load(std::memory_order_acquire)) break;

    // Nothing to do: publish idle (odd -> even) for the quiesce
    // double-read, park on the futex until a producer bumps the word,
    // then mark busy again (even -> odd).
    me.status.fetch_add(1, std::memory_order_release);
    if (probe) {
      const std::uint64_t park_start = now_ns();
      me.work.wait(seq);
      const std::uint64_t wake_ns = now_ns();
      probe->record(obs::ProbeKind::kParked, park_start, wake_ns - park_start,
                    obs::kNoLane, 0);
      // Wakeup latency: only meaningful when the notify landed during
      // this park (a stale stamp from before the park says nothing).
      const std::uint64_t notify = me.notify_ns.load(std::memory_order_relaxed);
      if (notify >= park_start && wake_ns > notify) {
        probe->record(obs::ProbeKind::kWakeup, wake_ns, wake_ns - notify,
                      obs::kNoLane, 0);
      }
    } else {
      me.work.wait(seq);
    }
    me.status.fetch_add(1, std::memory_order_release);
  }
}

void PoolTransport::handle_control(Worker& me, ControlItem& item) {
  (void)me;  // the worker identity matters only to the probe callers
  Slot& s = *slots_[index_of(item.target)];
  switch (item.kind) {
    case ControlItem::Kind::kView: {
      // Mirror Network's bookkeeping: the view install the node records
      // next cites the topology change that produced the component.
      obs::TraceEvent event;
      event.time = now();
      event.kind = obs::TraceEventKind::kTopologyChange;
      event.members = item.view.members;
      s.last_topo_eid = s.trace.record(std::move(event));
      s.node->deliver_view(item.view);
      return;
    }
    case ControlItem::Kind::kCrash:
      s.node->crash();
      return;
    case ControlItem::Kind::kRecover:
      s.node->recover();
      return;
    case ControlItem::Kind::kRun:
      item.fn();
      return;
    case ControlItem::Kind::kNone:
      break;
  }
  ensure(false, "empty control item");
}

void PoolTransport::handle_message(Worker& me, PoolItem& item,
                                   std::uint16_t source_lane) {
  const std::size_t ti = index_of(item.env.to);
  Slot& to = *slots_[ti];
  to.lamport = std::max(to.lamport, item.env.lamport) + 1;
  to.delivered.increment();
  obs::ProbeRing* const probe = me.probe.get();
  if (probe) {
    const std::uint64_t t = now_ns();
    probe->record(obs::ProbeKind::kLinkPop, t,
                  t > item.sent_ns ? t - item.sent_ns : 0, source_lane,
                  to.trace.last_eid());
    to.node->deliver_message(std::move(item.env));
    // `link` carries the handling process: pool lanes are workers, so
    // this is what lets the Chrome export color slices per process.
    probe->record(obs::ProbeKind::kHandlerMessage, t, now_ns() - t,
                  static_cast<std::uint16_t>(ti), to.trace.last_eid());
  } else {
    to.node->deliver_message(std::move(item.env));
  }
}

std::vector<obs::ThreadProbeLog> PoolTransport::snapshot_probe_logs() {
  if (!options_.probes) return {};
  std::vector<obs::ThreadProbeLog> logs(workers_.size() + 1);
  if (running_) {
    // Each ring is copied on its owning worker (via any process it
    // owns); quiesce publishes the copies back to the controller.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      obs::ThreadProbeLog& log = logs[i];
      obs::ProbeRing* ring = workers_[i]->probe.get();
      run_on(ids_[workers_[i]->owned.front()], [&log, ring] {
        log.dropped = ring->dropped();
        log.entries = ring->snapshot();
      });
    }
    quiesce();
  } else {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      logs[i].dropped = workers_[i]->probe->dropped();
      logs[i].entries = workers_[i]->probe->snapshot();
    }
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    logs[i].thread = static_cast<std::uint32_t>(i);
  }
  logs.back().thread = obs::kControllerLane;
  logs.back().dropped = controller_probe_->dropped();
  logs.back().entries = controller_probe_->snapshot();
  return logs;
}

}  // namespace dynvote::runtime
