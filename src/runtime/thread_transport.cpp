#include "runtime/thread_transport.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/ensure.hpp"

namespace dynvote::runtime {

namespace {
/// How long a producer spins on a full ring before the run is declared
/// wedged. Per-link depth is bounded by the protocols' phase structure
/// (a handful of messages), so hitting this means a consumer thread died
/// — fail loudly rather than hang the bench.
constexpr auto kBackpressureTimeout = std::chrono::seconds(30);
constexpr auto kQuiesceTimeout = std::chrono::seconds(60);
}  // namespace

ThreadTransport::Proc::Proc(ProcessId pid, std::size_t idx,
                            const RuntimeOptions& options)
    : id(pid), index(idx), wheel(options.wheel_tick_us) {
  trace.set_capacity(options.trace_capacity);
  logger.set_level(options.log_level);
  control = std::make_unique<SpscQueue<ControlItem>>(options.control_capacity);
  if (options.probes) {
    probe = std::make_unique<obs::ProbeRing>(options.probe_capacity);
  }
}

ThreadTransport::ThreadTransport(const std::vector<ProcessId>& processes,
                                 RuntimeOptions options)
    : options_(options),
      ids_(processes),
      pair_state_(processes.size() * processes.size()),
      start_time_(std::chrono::steady_clock::now()) {
  ensure(!ids_.empty(), "runtime transport needs at least one process");
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    for (std::size_t j = i + 1; j < ids_.size(); ++j) {
      ensure(ids_[i] != ids_[j], "duplicate process id");
    }
  }
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    procs_.push_back(std::make_unique<Proc>(ids_[i], i, options_));
    procs_.back()->component = next_component_++;
  }
  for (auto& p : procs_) {
    p->in.reserve(ids_.size());
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      p->in.push_back(
          std::make_unique<SpscQueue<LinkItem>>(options_.link_capacity));
    }
  }
  if (options_.probes) {
    controller_probe_ = std::make_unique<obs::ProbeRing>(options_.probe_capacity);
    for (auto& p : procs_) {
      // Fire slop, measured at the wheel: (deadline, now) land here just
      // before the entry's action runs, on p's own thread.
      Proc& me = *p;
      me.wheel.set_fire_hook([&me](SimTime deadline, SimTime fired_at) {
        me.probe->record(obs::ProbeKind::kTimerFire, deadline * 1000,
                         (fired_at - deadline) * 1000, obs::kNoLane,
                         me.trace.last_eid());
      });
    }
  }
  refresh_connectivity();  // self-links up, everything else down
}

ThreadTransport::~ThreadTransport() { stop_and_join(); }

std::size_t ThreadTransport::index_of(ProcessId p) const {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == p) return i;
  }
  invariant_failed("unknown runtime process " + to_string(p));
}

ThreadTransport::Proc& ThreadTransport::proc(ProcessId p) {
  return *procs_[index_of(p)];
}

const ThreadTransport::Proc& ThreadTransport::proc(ProcessId p) const {
  return *procs_[index_of(p)];
}

// -- Transport surface ------------------------------------------------------

void ThreadTransport::send(sim::Envelope env) {
  Proc& from = proc(env.from);
  const std::size_t ti = index_of(env.to);
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

  Proc& target = *procs_[ti];
  LinkItem item{std::move(env), st >> 1,
                from.probe ? now_ns() : std::uint64_t{0}};
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  SpscQueue<LinkItem>& link = *target.in[from.index];
  if (!link.try_push(std::move(item))) {
    const std::uint64_t stall_start = from.probe ? now_ns() : 0;
    const auto give_up = std::chrono::steady_clock::now() + kBackpressureTimeout;
    do {
      // Full ring: the receiver is behind. Make sure it is awake, then
      // yield — the bounded queue is the backpressure.
      bump_work(target);
      std::this_thread::yield();
      ensure(std::chrono::steady_clock::now() < give_up,
             "runtime link backpressure timeout (receiver wedged?)");
    } while (!link.try_push(std::move(item)));
    if (from.probe) {
      from.probe->record(obs::ProbeKind::kLinkPushFailed, stall_start,
                         now_ns() - stall_start,
                         static_cast<std::uint16_t>(ti),
                         from.trace.last_eid());
    }
  }
  if (from.probe) {
    from.probe->record(obs::ProbeKind::kLinkPush, now_ns(),
                       link.producer_size(), static_cast<std::uint16_t>(ti),
                       from.trace.last_eid());
  }
  bump_work(target);
}

SimTime ThreadTransport::now() const {
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

sim::TimerToken ThreadTransport::schedule_timer(ProcessId p, SimTime delay,
                                                sim::TimerAction action) {
  Proc& me = proc(p);
  if (me.probe) {
    me.probe->record(obs::ProbeKind::kTimerSchedule, now_ns(), delay * 1000,
                     obs::kNoLane, me.trace.last_eid());
  }
  return me.wheel.schedule_at(now() + delay, std::move(action));
}

bool ThreadTransport::cancel_timer(ProcessId p, sim::TimerToken token) {
  return proc(p).wheel.cancel(token);
}

sim::StableStorage& ThreadTransport::storage(ProcessId p) {
  return proc(p).storage;
}

obs::TraceSink& ThreadTransport::trace(ProcessId p) { return proc(p).trace; }

obs::MetricsRegistry& ThreadTransport::metrics(ProcessId p) {
  return proc(p).metrics;
}

std::uint64_t ThreadTransport::lamport_tick(ProcessId p) {
  return ++proc(p).lamport;
}

std::uint64_t ThreadTransport::last_topology_eid(ProcessId p) const {
  return proc(p).last_topo_eid;
}

void ThreadTransport::log(ProcessId p, LogLevel level,
                          const std::string& message) {
  Proc& me = proc(p);
  me.logger.log(now(), level, to_string(p), message);
}

// -- controller surface -----------------------------------------------------

void ThreadTransport::set_node(sim::Node* node) {
  ensure(node != nullptr, "null node");
  ensure(!running_, "set_node after start");
  Proc& me = proc(node->id());
  ensure(me.node == nullptr, "node attached twice");
  me.node = node;
}

void ThreadTransport::start() {
  ensure(!running_ && !joined_, "one lifecycle per transport");
  for (auto& p : procs_) {
    if (p->node == nullptr) {
      invariant_failed("process " + to_string(p->id) + " has no node attached");
    }
  }
  running_ = true;
  for (auto& p : procs_) {
    Proc& me = *p;
    me.thread = std::thread([this, &me] { thread_main(me); });
  }
}

void ThreadTransport::stop_and_join() {
  if (joined_) return;
  joined_ = true;
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  for (auto& p : procs_) bump_work(*p);
  for (auto& p : procs_) {
    if (p->thread.joinable()) p->thread.join();
  }
  running_ = false;
}

void ThreadTransport::set_components(const std::vector<ProcessSet>& groups) {
  ProcessSet seen;
  for (const ProcessSet& group : groups) {
    ensure(!group.empty(), "empty component");
    for (ProcessId p : group) {
      ensure(!seen.contains(p), "components must be disjoint");
      seen.insert(p);
    }
    const std::uint32_t component = next_component_++;
    for (ProcessId p : group) proc(p).component = component;
  }
  refresh_connectivity();
}

void ThreadTransport::merge_all() {
  ProcessSet all;
  for (ProcessId p : ids_) all.insert(p);
  set_components({all});
}

void ThreadTransport::crash(ProcessId p) {
  Proc& me = proc(p);
  if (!me.ctl_alive) return;
  post_control(p, ControlItem{ControlItem::Kind::kCrash, {}, {}});
  me.ctl_alive = false;  // keeps its component, like Network::set_alive
  refresh_connectivity();
}

void ThreadTransport::recover(ProcessId p) {
  Proc& me = proc(p);
  if (me.ctl_alive) return;
  post_control(p, ControlItem{ControlItem::Kind::kRecover, {}, {}});
  me.ctl_alive = true;
  me.component = next_component_++;  // fresh singleton component
  refresh_connectivity();
}

bool ThreadTransport::alive(ProcessId p) const { return proc(p).ctl_alive; }

std::vector<ProcessSet> ThreadTransport::live_components() const {
  std::map<std::uint32_t, ProcessSet> by_component;
  for (const auto& p : procs_) {
    if (p->ctl_alive) by_component[p->component].insert(p->id);
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

void ThreadTransport::post_view(const View& view) {
  for (ProcessId p : view.members) {
    post_control(p, ControlItem{ControlItem::Kind::kView, view, {}});
  }
}

void ThreadTransport::run_on(ProcessId p, sim::TimerAction fn) {
  ensure(static_cast<bool>(fn), "run_on with empty closure");
  post_control(p, ControlItem{ControlItem::Kind::kRun, {}, std::move(fn)});
}

void ThreadTransport::quiesce() {
  const auto give_up = std::chrono::steady_clock::now() + kQuiesceTimeout;
  while (inflight_.load(std::memory_order_acquire) != 0) {
    ensure(std::chrono::steady_clock::now() < give_up,
           "runtime quiesce timeout (a handler is stuck?)");
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

// -- internals --------------------------------------------------------------

void ThreadTransport::refresh_connectivity() {
  const std::size_t n = ids_.size();
  for (std::size_t a = 0; a < n; ++a) {
    const Proc& pa = *procs_[a];
    for (std::size_t b = 0; b < n; ++b) {
      const Proc& pb = *procs_[b];
      const bool want =
          pa.ctl_alive && pb.ctl_alive && pa.component == pb.component;
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

void ThreadTransport::post_control(ProcessId p, ControlItem item) {
  Proc& target = proc(p);
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

void ThreadTransport::bump_work(Proc& target) {
  if (target.probe) {
    target.notify_ns.store(now_ns(), std::memory_order_relaxed);
  }
  target.work.notify();
}

void ThreadTransport::thread_main(Proc& me) {
  ControlItem control;
  obs::ProbeRing* const probe = me.probe.get();
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
                      obs::kControllerLane, me.trace.last_eid());
        handle_control(me, control);
        probe->record(obs::ProbeKind::kHandlerControl, t, now_ns() - t,
                      obs::kControllerLane, me.trace.last_eid());
      } else {
        handle_control(me, control);
      }
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      did_work = true;
    }
    for (std::size_t si = 0; si < me.in.size(); ++si) {
      SpscQueue<LinkItem>& link = *me.in[si];
      // Batched drain: the whole burst costs one acquire refresh and
      // one cursor publish instead of a pair per message.
      while (link.pop_bulk(me.batch, link.capacity()) > 0) {
        if (probe) {
          probe->record(obs::ProbeKind::kBatch, now_ns(), me.batch.size(),
                        static_cast<std::uint16_t>(si), me.trace.last_eid());
        }
        for (LinkItem& item : me.batch) {
          if (probe) {
            const std::uint64_t t = now_ns();
            probe->record(obs::ProbeKind::kLinkPop, t,
                          t > item.sent_ns ? t - item.sent_ns : 0,
                          static_cast<std::uint16_t>(si), me.trace.last_eid());
            handle_message(me, item);
            probe->record(obs::ProbeKind::kHandlerMessage, t, now_ns() - t,
                          static_cast<std::uint16_t>(si), me.trace.last_eid());
          } else {
            handle_message(me, item);
          }
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
        }
        me.batch.clear();
        did_work = true;
      }
    }
    if (probe) {
      const std::uint64_t t = now_ns();
      if (me.wheel.advance(now()) > 0) {
        // One entry per firing advance() — the fire hook records the
        // per-timer slop, this records the batch's execution time.
        probe->record(obs::ProbeKind::kHandlerTimer, t, now_ns() - t,
                      obs::kNoLane, me.trace.last_eid());
        did_work = true;
      }
    } else if (me.wheel.advance(now()) > 0) {
      did_work = true;
    }
    if (did_work) continue;
    if (stop_.load(std::memory_order_acquire)) break;

    const auto deadline = me.wheel.next_deadline();
    if (deadline) {
      // A pending timer bounds the nap; the eventcount still wakes us
      // early for messages (checked at the top of the loop). wait_until
      // re-sizes every sleep slice from the current clock, so a wake
      // close to the deadline cannot re-park for the full slice cap.
      if (*deadline > now()) {
        const std::uint64_t nap_start = probe ? now_ns() : 0;
        me.work.wait_until(seq, *deadline, [this] { return now(); });
        if (probe) {
          // Split the nap at the deadline: time before it is parked,
          // time past it is slop the timer's consumer will observe.
          const std::uint64_t wake_ns = now_ns();
          const std::uint64_t deadline_ns = *deadline * 1000;
          if (wake_ns > deadline_ns) {
            if (deadline_ns > nap_start) {
              probe->record(obs::ProbeKind::kParked, nap_start,
                            deadline_ns - nap_start, obs::kNoLane,
                            me.trace.last_eid());
            }
            const std::uint64_t slop_from = std::max(nap_start, deadline_ns);
            probe->record(obs::ProbeKind::kTimerSlop, slop_from,
                          wake_ns - slop_from, obs::kNoLane,
                          me.trace.last_eid());
          } else {
            probe->record(obs::ProbeKind::kParked, nap_start,
                          wake_ns - nap_start, obs::kNoLane,
                          me.trace.last_eid());
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
                      wake_ns - park_start, obs::kNoLane, me.trace.last_eid());
        // Wakeup latency: only meaningful when the notify landed during
        // this park (a stale stamp from before the park says nothing).
        const std::uint64_t notify =
            me.notify_ns.load(std::memory_order_relaxed);
        if (notify >= park_start && wake_ns > notify) {
          probe->record(obs::ProbeKind::kWakeup, wake_ns, wake_ns - notify,
                        obs::kNoLane, me.trace.last_eid());
        }
      } else {
        me.work.wait(seq);
      }
    }
  }
}

std::vector<obs::ThreadProbeLog> ThreadTransport::snapshot_probe_logs() {
  if (!options_.probes) return {};
  std::vector<obs::ThreadProbeLog> logs(ids_.size() + 1);
  if (running_) {
    // Each ring is copied on its owning thread; quiesce publishes the
    // copies back to the controller.
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      obs::ThreadProbeLog& log = logs[i];
      obs::ProbeRing* ring = procs_[i]->probe.get();
      run_on(ids_[i], [&log, ring] {
        log.dropped = ring->dropped();
        log.entries = ring->snapshot();
      });
    }
    quiesce();
  } else {
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      logs[i].dropped = procs_[i]->probe->dropped();
      logs[i].entries = procs_[i]->probe->snapshot();
    }
  }
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    logs[i].thread = static_cast<std::uint32_t>(i);
  }
  logs.back().thread = obs::kControllerLane;
  logs.back().dropped = controller_probe_->dropped();
  logs.back().entries = controller_probe_->snapshot();
  return logs;
}

void ThreadTransport::handle_control(Proc& me, ControlItem& item) {
  switch (item.kind) {
    case ControlItem::Kind::kView: {
      // Mirror Network's bookkeeping: the view install the node records
      // next cites the topology change that produced the component.
      obs::TraceEvent event;
      event.time = now();
      event.kind = obs::TraceEventKind::kTopologyChange;
      event.members = item.view.members;
      me.last_topo_eid = me.trace.record(std::move(event));
      me.node->deliver_view(item.view);
      return;
    }
    case ControlItem::Kind::kCrash:
      me.node->crash();
      return;
    case ControlItem::Kind::kRecover:
      me.node->recover();
      return;
    case ControlItem::Kind::kRun:
      item.fn();
      return;
    case ControlItem::Kind::kNone:
      break;
  }
  ensure(false, "empty control item");
}

void ThreadTransport::handle_message(Proc& me, LinkItem& item) {
  const std::size_t si = index_of(item.env.from);
  const std::uint64_t st =
      pair_state(si, me.index).load(std::memory_order_acquire);
  if ((st & 1) == 0 || (st >> 1) != item.epoch) {
    // The link was cut (or cut and re-formed) while the message was in
    // flight: partition semantics say it is lost.
    me.metrics.counter("rt.dropped_link_epoch").increment();
    return;
  }
  me.lamport = std::max(me.lamport, item.env.lamport) + 1;
  me.metrics.counter("rt.delivered").increment();
  me.node->deliver_message(std::move(item.env));
}

}  // namespace dynvote::runtime
