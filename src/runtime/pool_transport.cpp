#include "runtime/pool_transport.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "util/ensure.hpp"

namespace dynvote::runtime {

namespace {
/// How long the controller spins on a full control ring before the run
/// is declared wedged (workers never block, so a live worker always
/// drains its control ring eventually).
constexpr auto kBackpressureTimeout = std::chrono::seconds(30);
constexpr auto kQuiesceTimeout = std::chrono::seconds(60);
/// Floor on each cross-worker ring's capacity, in messages; the ring
/// grows with the shard size above it. The spill deques make this a
/// performance knob, not a correctness bound.
constexpr std::size_t kMinLinkCapacity = 256;
/// Floor on each controller->worker control queue's capacity.
constexpr std::size_t kMinControlCapacity = 128;
/// Per-process logger threshold.
constexpr LogLevel kLogLevel = LogLevel::kWarn;
/// Per-process trace-ring capacity. Bounded so long benches don't grow
/// trace memory without limit; far above any cross-check scenario's
/// event count, so digests are unaffected.
constexpr std::size_t kTraceCapacity = 65536;
}  // namespace

PoolTransport::Slot::Slot(ProcessId pid, std::size_t idx, std::uint32_t w)
    : id(pid), index(idx), worker(w) {
  trace.set_capacity(kTraceCapacity);
  logger.set_level(kLogLevel);
}

PoolTransport::Worker::Worker(std::uint32_t idx, std::uint32_t num_workers,
                              const RuntimeOptions& options,
                              std::size_t control_capacity)
    : index(idx), wheel(options.wheel_tick_us), spill(num_workers) {
  control = std::make_unique<SpscQueue<ControlItem>>(control_capacity);
  if (options.probes) {
    probe = std::make_unique<obs::ProbeRing>(options.probe_capacity);
  }
}

PoolTransport::PoolTransport(const std::vector<ProcessId>& processes,
                             std::uint32_t workers, RuntimeOptions options)
    : options_(options),
      ids_(processes),
      pair_state_(processes.size() * processes.size()),
      start_time_(std::chrono::steady_clock::now()) {
  ensure(!ids_.empty(), "runtime transport needs at least one process");
  lookup_.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    lookup_.emplace_back(ids_[i], i);
  }
  std::sort(lookup_.begin(), lookup_.end());
  for (std::size_t i = 1; i < lookup_.size(); ++i) {
    ensure(lookup_[i - 1].first != lookup_[i].first, "duplicate process id");
  }

  std::uint32_t w = workers;
  if (w == 0) w = std::max(1u, std::thread::hardware_concurrency());
  w = static_cast<std::uint32_t>(
      std::min<std::size_t>(w, ids_.size()));  // extra workers would idle

  for (std::size_t i = 0; i < ids_.size(); ++i) {
    slots_.push_back(
        std::make_unique<Slot>(ids_[i], i, static_cast<std::uint32_t>(i % w)));
    slots_.back()->component = next_component_++;
  }

  // A view announcement lands one control item per member, so a worker
  // can see its whole shard addressed in one burst; size the ring so
  // two back-to-back bursts fit without making the controller spin.
  const std::size_t per_worker = (ids_.size() + w - 1) / w;
  const std::size_t control_capacity =
      std::max(kMinControlCapacity, 2 * per_worker + 8);
  for (std::uint32_t wi = 0; wi < w; ++wi) {
    workers_.push_back(
        std::make_unique<Worker>(wi, w, options_, control_capacity));
  }
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    workers_[i % w]->owned.push_back(i);
  }

  // A cross-worker ring aggregates every process pair between its two
  // workers, so scale its capacity with the shard size.
  const std::size_t ring_capacity =
      std::max(kMinLinkCapacity, 4 * per_worker);
  rings_.reserve(static_cast<std::size_t>(w) * w);
  for (std::uint32_t src = 0; src < w; ++src) {
    for (std::uint32_t dst = 0; dst < w; ++dst) {
      rings_.push_back(std::make_unique<SpscQueue<PoolItem>>(ring_capacity));
    }
  }

  if (options_.probes) {
    controller_probe_ =
        std::make_unique<obs::ProbeRing>(options_.probe_capacity);
    for (auto& worker : workers_) {
      Worker& me = *worker;
      me.wheel.set_fire_hook([&me](SimTime deadline, SimTime fired_at) {
        me.probe->record(obs::ProbeKind::kTimerFire, deadline * 1000,
                         (fired_at - deadline) * 1000, obs::kNoLane, 0);
      });
    }
  }
  refresh_connectivity();  // self-links up, everything else down
}

PoolTransport::~PoolTransport() { stop_and_join(); }

std::size_t PoolTransport::index_of(ProcessId p) const {
  const auto it = std::lower_bound(
      lookup_.begin(), lookup_.end(), p,
      [](const auto& entry, ProcessId id) { return entry.first < id; });
  if (it == lookup_.end() || it->first != p) {
    invariant_failed("unknown runtime process " + to_string(p));
  }
  return it->second;
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
  const std::uint64_t st =
      pair_state(from.index, ti).load(std::memory_order_acquire);
  if ((st & 1) == 0) {
    // Not connected at send time: silently lost, like Network's
    // unroutable/filtered drop.
    from.metrics.counter("rt.dropped_unroutable").increment();
    return;
  }
  env.lamport = ++from.lamport;
  from.metrics.counter("rt.sent").increment();

  Worker& me = *workers_[from.worker];  // we are executing on this thread
  obs::ProbeRing* const probe = me.probe.get();
  const std::uint64_t sent_ns = probe ? now_ns() : 0;
  PoolItem item{std::move(env), st >> 1, sent_ns};

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

  Worker& dest = *workers_[to.worker];
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  SpscQueue<PoolItem>& link = ring(from.worker, to.worker);
  if (me.spill[to.worker].empty() && link.try_push(std::move(item))) {
    if (probe) {
      probe->record(obs::ProbeKind::kHandoff, now_ns(), link.producer_size(),
                    static_cast<std::uint16_t>(to.worker),
                    from.trace.last_eid());
    }
    bump_work(dest);
  } else {
    // Full ring (or order-preservation behind earlier spilled items):
    // never block — spill and let the loop retry the flush. This is the
    // no-deadlock guarantee for mutually backpressured workers.
    me.spill[to.worker].push_back(std::move(item));
    ++me.spilled;
    if (probe) {
      probe->record(obs::ProbeKind::kLinkPushFailed, now_ns(), 0,
                    static_cast<std::uint16_t>(to.worker),
                    from.trace.last_eid());
    }
  }
}

SimTime PoolTransport::now() const {
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

sim::TimerToken PoolTransport::schedule_timer(ProcessId p, SimTime delay,
                                              sim::TimerAction action) {
  Slot& s = slot(p);
  Worker& me = *workers_[s.worker];
  if (me.probe) {
    me.probe->record(obs::ProbeKind::kTimerSchedule, now_ns(), delay * 1000,
                     static_cast<std::uint16_t>(s.index), s.trace.last_eid());
  }
  return me.wheel.schedule_at(now() + delay, std::move(action));
}

bool PoolTransport::cancel_timer(ProcessId p, sim::TimerToken token) {
  return workers_[slot(p).worker]->wheel.cancel(token);
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

void PoolTransport::log(ProcessId p, LogLevel level,
                        const std::string& message) {
  Slot& s = slot(p);
  s.logger.log(now(), level, to_string(p), message);
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
  ProcessSet seen;
  for (const ProcessSet& group : groups) {
    ensure(!group.empty(), "empty component");
    for (ProcessId p : group) {
      ensure(!seen.contains(p), "components must be disjoint");
      seen.insert(p);
    }
    const std::uint32_t component = next_component_++;
    for (ProcessId p : group) slot(p).component = component;
  }
  refresh_connectivity();
}

void PoolTransport::merge_all() {
  ProcessSet all;
  for (ProcessId p : ids_) all.insert(p);
  set_components({all});
}

void PoolTransport::crash(ProcessId p) {
  Slot& s = slot(p);
  if (!s.ctl_alive) return;
  post_control(p, ControlItem{ControlItem::Kind::kCrash, p, {}, {}});
  s.ctl_alive = false;  // keeps its component, like Network::set_alive
  refresh_connectivity();
}

void PoolTransport::recover(ProcessId p) {
  Slot& s = slot(p);
  if (s.ctl_alive) return;
  post_control(p, ControlItem{ControlItem::Kind::kRecover, p, {}, {}});
  s.ctl_alive = true;
  s.component = next_component_++;  // fresh singleton component
  refresh_connectivity();
}

bool PoolTransport::alive(ProcessId p) const { return slot(p).ctl_alive; }

std::vector<ProcessSet> PoolTransport::live_components() const {
  std::map<std::uint32_t, ProcessSet> by_component;
  for (const auto& s : slots_) {
    if (s->ctl_alive) by_component[s->component].insert(s->id);
  }
  std::vector<ProcessSet> components;
  components.reserve(by_component.size());
  for (auto& [component, members] : by_component) {
    components.push_back(std::move(members));
  }
  // Network::live_components orders by smallest member; the oracle's
  // view-id assignment depends on this order, so the mirror must too.
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

void PoolTransport::run_on(ProcessId p, sim::TimerAction fn) {
  ensure(static_cast<bool>(fn), "run_on with empty closure");
  post_control(p, ControlItem{ControlItem::Kind::kRun, p, {}, std::move(fn)});
}

void PoolTransport::quiesce() {
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
  if (!running_) {
    while (inflight_.load(std::memory_order_acquire) != 0) {
      ensure(std::chrono::steady_clock::now() < give_up,
             "runtime quiesce timeout (a handler is stuck?)");
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    return;
  }
  // Double-read over the worker status words. Local run-queue items are
  // not in inflight_, but they only exist while their worker's status is
  // odd — so "all even, inflight zero, statuses unchanged" is a global
  // fixed point: any work present at the first read is either counted
  // (rings/control) or has moved a status word before the second.
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
    if (!all_even || inflight_.load(std::memory_order_acquire) != 0) {
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

void PoolTransport::refresh_connectivity() {
  const std::size_t n = ids_.size();
  for (std::size_t a = 0; a < n; ++a) {
    const Slot& sa = *slots_[a];
    for (std::size_t b = 0; b < n; ++b) {
      const Slot& sb = *slots_[b];
      const bool want =
          sa.ctl_alive && sb.ctl_alive && sa.component == sb.component;
      std::atomic<std::uint64_t>& state = pair_state(a, b);
      // The controller is the only writer: a relaxed read sees its own
      // latest store.
      const std::uint64_t current = state.load(std::memory_order_relaxed);
      if ((current & 1) != 0 && !want) {
        // Disconnection bumps the epoch: in-flight traffic on this link
        // is lost even if the pair later reconnects.
        state.store(((current >> 1) + 1) << 1, std::memory_order_release);
      } else if ((current & 1) == 0 && want) {
        state.store(current | 1, std::memory_order_release);
      }
    }
  }
}

void PoolTransport::post_control(ProcessId p, ControlItem item) {
  Worker& target = *workers_[slot(p).worker];
  if (controller_probe_) item.sent_ns = now_ns();
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (!target.control->try_push(std::move(item))) {
    const std::uint64_t stall_start = controller_probe_ ? now_ns() : 0;
    const auto give_up = std::chrono::steady_clock::now() + kBackpressureTimeout;
    do {
      bump_work(target);
      std::this_thread::yield();
      ensure(std::chrono::steady_clock::now() < give_up,
             "runtime control backpressure timeout");
    } while (!target.control->try_push(std::move(item)));
    if (controller_probe_) {
      controller_probe_->record(obs::ProbeKind::kLinkPushFailed, stall_start,
                                now_ns() - stall_start,
                                static_cast<std::uint16_t>(target.index), 0);
    }
  }
  if (controller_probe_) {
    controller_probe_->record(obs::ProbeKind::kControlPush, now_ns(),
                              target.control->producer_size(),
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

bool PoolTransport::flush_spills(Worker& me) {
  if (me.spilled == 0) return false;
  bool moved = false;
  for (std::uint32_t dst = 0; dst < workers_.size(); ++dst) {
    std::deque<PoolItem>& queue = me.spill[dst];
    if (queue.empty()) continue;
    SpscQueue<PoolItem>& link = ring(me.index, dst);
    bool pushed_any = false;
    while (!queue.empty() && link.try_push(std::move(queue.front()))) {
      queue.pop_front();
      --me.spilled;
      pushed_any = true;
    }
    if (pushed_any) {
      bump_work(*workers_[dst]);
      moved = true;
    }
  }
  return moved;
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
    while (me.control->try_pop(control)) {
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
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      note_progress();
      did_work = true;
    }
    if (flush_spills(me)) did_work = true;
    for (std::uint32_t src = 0; src < num_workers; ++src) {
      if (src == me.index) continue;
      SpscQueue<PoolItem>& link = ring(src, me.index);
      // Batched drain: the whole burst costs one acquire refresh and
      // one cursor publish instead of a pair per message.
      while (link.pop_bulk(me.batch, link.capacity()) > 0) {
        if (probe) {
          probe->record(obs::ProbeKind::kBatch, now_ns(), me.batch.size(),
                        static_cast<std::uint16_t>(src), 0);
        }
        for (PoolItem& item : me.batch) {
          handle_message(me, item, static_cast<std::uint16_t>(src));
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
          note_progress();
        }
        me.batch.clear();
        did_work = true;
      }
    }
    // Local run queue last: handlers above may have appended to it, and
    // handlers below may too — the loop drains to empty, preserving
    // FIFO (no inflight accounting: these never left this thread).
    while (!me.local.empty()) {
      PoolItem item = std::move(me.local.front());
      me.local.pop_front();
      handle_message(me, item, static_cast<std::uint16_t>(me.index));
      note_progress();
      did_work = true;
    }
    if (probe) {
      const std::uint64_t t = now_ns();
      if (me.wheel.advance(now()) > 0) {
        // One entry per firing advance() — the fire hook records the
        // per-timer slop, this records the batch's execution time.
        probe->record(obs::ProbeKind::kHandlerTimer, t, now_ns() - t,
                      obs::kNoLane, 0);
        note_progress();
        did_work = true;
      }
    } else if (me.wheel.advance(now()) > 0) {
      note_progress();
      did_work = true;
    }
    if (did_work) continue;
    if (stop_.load(std::memory_order_acquire)) {
      if (me.spilled > 0) {
        // Shutdown with undeliverable spill (the fleet quiesces before
        // stopping, so only a hard stop gets here): drop the items but
        // release their inflight counts so nothing wedges.
        inflight_.fetch_sub(static_cast<std::int64_t>(me.spilled),
                            std::memory_order_acq_rel);
        me.spilled = 0;
      }
      break;
    }

    // Nothing to do: publish idle (odd -> even) for the quiesce
    // double-read, park, then mark busy again (even -> odd) on wake.
    me.status.fetch_add(1, std::memory_order_release);
    const auto deadline = me.wheel.next_deadline();
    std::optional<SimTime> limit;
    if (deadline) limit = *deadline;
    if (me.spilled > 0) {
      // Pending spill: ring drains are not notified back to producers,
      // so retry the flush within one nap slice at most.
      const SimTime retry = now() + RuntimeEventcount::kMaxNapSliceUs;
      limit = limit ? std::min(*limit, retry) : retry;
    }
    if (limit) {
      if (*limit > now()) {
        const std::uint64_t nap_start = probe ? now_ns() : 0;
        me.work.wait_until(seq, *limit, [this] { return now(); });
        if (probe) {
          // Split the nap at the timer deadline: time before it is
          // parked, time past it is slop the timer's consumer will
          // observe. Spill-bounded naps have no deadline to miss.
          const std::uint64_t wake_ns = now_ns();
          const std::uint64_t deadline_ns =
              deadline ? *deadline * 1000 : ~std::uint64_t{0};
          if (wake_ns > deadline_ns) {
            if (deadline_ns > nap_start) {
              probe->record(obs::ProbeKind::kParked, nap_start,
                            deadline_ns - nap_start, obs::kNoLane, 0);
            }
            const std::uint64_t slop_from = std::max(nap_start, deadline_ns);
            probe->record(obs::ProbeKind::kTimerSlop, slop_from,
                          wake_ns - slop_from, obs::kNoLane, 0);
          } else {
            probe->record(obs::ProbeKind::kParked, nap_start,
                          wake_ns - nap_start, obs::kNoLane, 0);
          }
        }
      }
    } else {
      // Fully idle: park on the futex until a producer bumps the word.
      if (probe) {
        const std::uint64_t park_start = now_ns();
        me.work.wait(seq);
        const std::uint64_t wake_ns = now_ns();
        probe->record(obs::ProbeKind::kParked, park_start,
                      wake_ns - park_start, obs::kNoLane, 0);
        // Wakeup latency: only meaningful when the notify landed during
        // this park (a stale stamp from before the park says nothing).
        const std::uint64_t notify =
            me.notify_ns.load(std::memory_order_relaxed);
        if (notify >= park_start && wake_ns > notify) {
          probe->record(obs::ProbeKind::kWakeup, wake_ns, wake_ns - notify,
                        obs::kNoLane, 0);
        }
      } else {
        me.work.wait(seq);
      }
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
  const std::size_t si = index_of(item.env.from);
  const std::size_t ti = index_of(item.env.to);
  Slot& to = *slots_[ti];
  const std::uint64_t st = pair_state(si, ti).load(std::memory_order_acquire);
  if ((st & 1) == 0 || (st >> 1) != item.epoch) {
    // The link was cut (or cut and re-formed) while the message was in
    // flight: partition semantics say it is lost.
    to.metrics.counter("rt.dropped_link_epoch").increment();
    return;
  }
  to.lamport = std::max(to.lamport, item.env.lamport) + 1;
  to.metrics.counter("rt.delivered").increment();
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
