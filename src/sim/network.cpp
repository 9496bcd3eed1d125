#include "sim/network.hpp"

#include <algorithm>
#include <map>

#include "sim/node.hpp"
#include "util/ensure.hpp"

namespace dynvote::sim {

Network::Network(EventQueue& queue, Rng rng, obs::TraceSink& trace,
                 obs::MetricsRegistry& metrics)
    : queue_(queue),
      rng_(rng),
      trace_(trace),
      metrics_(metrics),
      sent_(metrics.counter("net.messages_sent")),
      loopback_(metrics.counter("net.messages_loopback")),
      delivered_(metrics.counter("net.messages_delivered")),
      filtered_(metrics.counter("net.messages_filtered")),
      unroutable_(metrics.counter("net.messages_unroutable")),
      lost_in_flight_(metrics.counter("net.messages_lost_in_flight")),
      bytes_sent_(metrics.counter("net.bytes_sent")),
      bytes_rejected_(metrics.counter("net.bytes_rejected")),
      topology_changes_(metrics.counter("net.topology_changes")) {}

std::size_t Network::tri_index(std::uint32_t slot_a, std::uint32_t slot_b) {
  std::uint64_t lo = slot_a;
  std::uint64_t hi = slot_b;
  if (lo > hi) std::swap(lo, hi);
  return static_cast<std::size_t>(hi * (hi - 1) / 2 + lo);
}

std::size_t Network::directed_index(std::uint32_t slot_from,
                                    std::uint32_t slot_to) {
  return tri_index(slot_from, slot_to) * 2 + (slot_from > slot_to ? 1 : 0);
}

void Network::add_process(ProcessId p, Node& node) {
  ensure(!known(p), "process added twice");
  processes_.insert(p);  // rejects an id >= kProcessIdLimit
  const auto slot = static_cast<std::uint32_t>(entries_.size());
  if (p.value() >= slot_direct_.size()) {
    slot_direct_.resize(p.value() + 1, kNoSlot);
  }
  slot_direct_[p.value()] = slot;
  entries_.emplace_back();
  // Append pair entries for every pair whose larger slot is the new one.
  // Fresh entries start at epoch 0 / no tail, exactly the state an
  // untouched pair had before the process existed.
  const std::size_t pair_slots =
      static_cast<std::size_t>(std::uint64_t{slot} * (slot + 1) / 2);
  link_epochs_.resize(pair_slots, 0);
  fifo_tails_.resize(pair_slots * 2, 0);
  ProcessEntry& entry = entries_[slot];
  entry.alive = true;
  entry.component = next_component_++;
  entry.node = &node;
}

std::vector<Network::ConnectivityEntry> Network::snapshot_connectivity()
    const {
  std::vector<ConnectivityEntry> out(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out[i] = ConnectivityEntry{entries_[i].alive, entries_[i].component};
  }
  return out;
}

void Network::set_components(const std::vector<ProcessSet>& groups) {
  // Validate disjointness before mutating anything.
  ProcessSet seen;
  for (const ProcessSet& group : groups) {
    for (ProcessId p : group) {
      ensure(known(p), "set_components: unknown process");
      ensure(seen.insert(p), "set_components: process in two groups");
    }
  }
  const auto before = snapshot_connectivity();
  for (const ProcessSet& group : groups) {
    const std::uint32_t component = next_component_++;
    for (ProcessId p : group) entries_[slot_of(p)].component = component;
  }
  bump_epochs_for_disconnections(before);
  record_topology(/*cause=*/0);
  notify_topology_changed();
}

void Network::merge_all() {
  std::vector<ProcessSet> one{processes_};
  set_components(one);
}

void Network::set_alive(ProcessId p, bool alive) {
  const std::uint32_t slot = slot_of(p);
  ensure(slot != kNoSlot, "unknown process");
  if (entries_[slot].alive == alive) return;
  const auto before = snapshot_connectivity();
  entries_[slot].alive = alive;
  if (alive) {
    // A recovering process comes back in its own fresh component; a merge
    // (set_components) reconnects it explicitly.
    entries_[slot].component = next_component_++;
  }
  bump_epochs_for_disconnections(before);
  obs::TraceEvent event;
  event.time = queue_.now();
  event.kind = alive ? obs::TraceEventKind::kProcessRecover
                     : obs::TraceEventKind::kProcessCrash;
  event.a = p;
  event.lamport = lamport_tick(p);
  const std::uint64_t cause = trace_.record(std::move(event));
  // The ensuing topology change is an effect of the crash/recovery.
  record_topology(cause);
  notify_topology_changed();
}

bool Network::alive(ProcessId p) const {
  const std::uint32_t slot = slot_of(p);
  return slot != kNoSlot && entries_[slot].alive;
}

bool Network::connected(ProcessId a, ProcessId b) const {
  if (a == b) return alive(a);
  const std::uint32_t sa = slot_of(a);
  const std::uint32_t sb = slot_of(b);
  if (sa == kNoSlot || sb == kNoSlot) return false;
  const ProcessEntry& ea = entries_[sa];
  const ProcessEntry& eb = entries_[sb];
  return ea.alive && eb.alive && ea.component == eb.component;
}

std::vector<ProcessSet> Network::live_components() const {
  std::map<std::uint32_t, ProcessSet> by_component;
  for (ProcessId p : processes_) {
    const ProcessEntry& entry = entries_[slot_of(p)];
    if (entry.alive) by_component[entry.component].insert(p);
  }
  std::vector<ProcessSet> out;
  out.reserve(by_component.size());
  for (auto& [component, members] : by_component) out.push_back(members);
  // Deterministic order: by smallest member.
  std::sort(out.begin(), out.end());
  return out;
}

void Network::bump_epochs_for_disconnections(
    const std::vector<ConnectivityEntry>& before) {
  // Only a pair that was connected before can disconnect, and
  // was-connected means "same old component" — so instead of scanning
  // all n^2 pairs (prohibitive for a sharded fleet at four-digit n with
  // hundreds of small components), walk each old component and check
  // only its internal pairs. Components are grouped in slot order, so
  // the bump order per pair is deterministic.
  std::map<std::uint32_t, std::vector<std::uint32_t>> old_components;
  for (std::uint32_t slot = 0; slot < before.size(); ++slot) {
    if (before[slot].alive) {
      old_components[before[slot].component].push_back(slot);
    }
  }
  for (const auto& [component, slots] : old_components) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const ProcessEntry& ea = entries_[slots[i]];
      for (std::size_t j = i + 1; j < slots.size(); ++j) {
        const ProcessEntry& eb = entries_[slots[j]];
        if (ea.alive && eb.alive && ea.component == eb.component) continue;
        const std::size_t tri = tri_index(slots[i], slots[j]);
        ++link_epochs_[tri];
        // The cut loses everything in flight on this pair, so the FIFO
        // tail must not constrain the healed link: without this clear the
        // first message after a heal is delayed behind ghosts of messages
        // that were dropped by the epoch check.
        fifo_tails_[tri * 2] = 0;
        fifo_tails_[tri * 2 + 1] = 0;
      }
    }
  }
}

void Network::record_topology(std::uint64_t cause) {
  topology_changes_.increment();
  for (const ProcessSet& component : live_components()) {
    obs::TraceEvent event;
    event.time = queue_.now();
    event.kind = obs::TraceEventKind::kTopologyChange;
    event.members = component;
    event.cause = cause;
    const std::uint64_t eid = trace_.record(std::move(event));
    // Remember, per process, the topology event that last reshaped its
    // component: the membership oracle's next view install cites it.
    for (ProcessId p : component) entries_[slot_of(p)].topo_eid = eid;
  }
}

void Network::notify_topology_changed() {
  for (const auto& observer : observers_) observer();
}

std::uint64_t Network::lamport_tick(ProcessId p) {
  const std::uint32_t slot = slot_of(p);
  ensure(slot != kNoSlot, "unknown process");
  return ++entries_[slot].lamport;
}

std::uint64_t Network::lamport(ProcessId p) const {
  const std::uint32_t slot = slot_of(p);
  return slot != kNoSlot ? entries_[slot].lamport : 0;
}

std::uint64_t Network::last_topology_eid(ProcessId p) const {
  const std::uint32_t slot = slot_of(p);
  return slot != kNoSlot ? entries_[slot].topo_eid : 0;
}

std::uint64_t Network::link_epoch(ProcessId a, ProcessId b) const {
  // Loopback has no link to partition: a broadcast's self-send must not
  // index the pair table (tri_index(s, s) for the largest slot lands one
  // past the end of link_epochs_).
  if (a == b) return 0;
  return link_epochs_[tri_index(slot_of(a), slot_of(b))];
}

void Network::add_topology_observer(TopologyObserver observer) {
  observers_.push_back(std::move(observer));
}

void Network::count_drop(const Envelope& env, obs::DropCause cause) {
  switch (cause) {
    case obs::DropCause::kFilter:
      filtered_.increment();
      break;
    case obs::DropCause::kDisconnected:
      unroutable_.increment();
      break;
    case obs::DropCause::kLinkEpoch:
      lost_in_flight_.increment();
      break;
  }
  // Per-message events are built only when the sink keeps them.
  if (!trace_.messages_enabled()) return;
  obs::TraceEvent event;
  event.time = queue_.now();
  event.kind = obs::TraceEventKind::kMessageDrop;
  event.a = env.from;
  event.b = env.to;
  event.value = static_cast<std::uint64_t>(cause);
  event.detail = env.payload->type_name();
  // In-flight losses cite the send that launched the message; at-send
  // drops are themselves the root record of the doomed send.
  event.lamport = env.lamport;
  event.cause = env.send_eid;
  trace_.record(std::move(event));
}

void Network::send(Envelope env) {
  ensure(known(env.from) && known(env.to), "send between unknown processes");
  ensure(env.payload != nullptr, "null payload");
  sent_.increment();
  if (env.from == env.to) loopback_.increment();
  const std::size_t size = env.payload->encoded_size();
  // A send attempt is a local event of the sender, whatever its fate.
  env.lamport = lamport_tick(env.from);

  if (drop_filter_ && drop_filter_(env)) {
    bytes_rejected_.add(size);
    count_drop(env, obs::DropCause::kFilter);
    return;
  }
  if (!connected(env.from, env.to)) {
    bytes_rejected_.add(size);
    count_drop(env, obs::DropCause::kDisconnected);
    return;
  }
  // Only traffic actually admitted to a channel counts as sent bytes; the
  // communication benches must not bill filtered or unroutable messages.
  bytes_sent_.add(size);
  if (trace_.messages_enabled()) {
    // Off, send_eid stays 0: what record() returns for a skipped event.
    obs::TraceEvent send_event;
    send_event.time = queue_.now();
    send_event.kind = obs::TraceEventKind::kMessageSend;
    send_event.a = env.from;
    send_event.b = env.to;
    send_event.detail = env.payload->type_name();
    send_event.lamport = env.lamport;
    env.send_eid = trace_.record(std::move(send_event));
  }

  const std::uint64_t epoch = link_epoch(env.from, env.to);
  SimTime when;
  if (env.from == env.to) {
    when = queue_.now();  // local loopback: same instant, after queued work
  } else {
    const SimTime latency =
        kMinLatency + rng_.next_below(kMaxLatency - kMinLatency + 1);
    when = queue_.now() + latency;
    // Reliable FIFO channel: per ordered pair, deliveries never reorder.
    SimTime& tail =
        fifo_tails_[directed_index(slot_of(env.from), slot_of(env.to))];
    if (tail != 0) when = std::max(when, tail - 1);
    tail = when + 1;
  }
  queue_.schedule_at(when, [this, env = std::move(env), epoch]() mutable {
    deliver(env, epoch);
  });
}

void Network::deliver(Envelope& env, std::uint64_t epoch_at_send) {
  // The pair must have stayed connected for the whole flight; a partition
  // (even a healed one) loses the message, per the model in paper
  // section 3.
  if (!connected(env.from, env.to) ||
      link_epoch(env.from, env.to) != epoch_at_send) {
    count_drop(env, obs::DropCause::kLinkEpoch);
    return;
  }
  ProcessEntry& receiver = entries_[slot_of(env.to)];
  delivered_.increment();
  // Lamport receive rule: the receiver's clock jumps past everything the
  // sender had seen at send time.
  receiver.lamport = std::max(receiver.lamport, env.lamport) + 1;
  if (trace_.messages_enabled()) {
    obs::TraceEvent event;
    event.time = queue_.now();
    event.kind = obs::TraceEventKind::kMessageDeliver;
    event.a = env.from;
    event.b = env.to;
    event.detail = env.payload->type_name();
    event.lamport = receiver.lamport;
    event.cause = env.send_eid;
    trace_.record(std::move(event));
  }
  receiver.node->deliver_message(std::move(env));
}

NetworkStats Network::stats() const {
  NetworkStats out;
  out.messages_sent = sent_.value();
  out.messages_loopback = loopback_.value();
  out.messages_delivered = delivered_.value();
  out.messages_filtered = filtered_.value();
  out.messages_unroutable = unroutable_.value();
  out.messages_lost_in_flight = lost_in_flight_.value();
  out.messages_dropped = out.messages_filtered + out.messages_unroutable +
                         out.messages_lost_in_flight;
  out.bytes_sent = bytes_sent_.value();
  out.bytes_rejected = bytes_rejected_.value();
  return out;
}

std::optional<SimTime> Network::fifo_tail(ProcessId from, ProcessId to) const {
  const std::uint32_t sf = slot_of(from);
  const std::uint32_t st = slot_of(to);
  if (sf == kNoSlot || st == kNoSlot || sf == st) return std::nullopt;
  const std::size_t index = directed_index(sf, st);
  if (index >= fifo_tails_.size() || fifo_tails_[index] == 0 ||
      fifo_tails_[index] - 1 <= queue_.now()) {
    return std::nullopt;
  }
  return fifo_tails_[index] - 1;
}

}  // namespace dynvote::sim
