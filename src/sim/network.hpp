// Simulated partitionable network.
//
// Model (paper section 3): processes communicate over reliable FIFO
// channels while connected; failures partition the network into disjoint
// components and components may re-merge; messages in flight across a
// partition boundary are lost (the protocol learns of the loss through a
// membership change, never through corruption).
//
// Connectivity is component-based: each live process belongs to exactly
// one component; two processes are connected iff they are both alive and
// in the same component. A per-pair "link epoch" is bumped whenever a
// pair becomes disconnected, so a message sent before a partition is not
// resurrected by a later merge. Bumping an epoch also clears the pair's
// FIFO bookkeeping: a message that died with the old link must not delay
// traffic on the healed one.
//
// Observability: every send/drop/delivery and topology change is counted
// in the simulation's MetricsRegistry and (optionally) recorded in its
// TraceSink; NetworkStats is now a read-only snapshot assembled from
// those counters.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/message.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"

namespace dynvote::sim {

class Node;

/// A remote message's latency is uniform in [kMinLatency, kMaxLatency]
/// ticks. The paper's safety claims hold for any delays (section 3),
/// so no workload tunes them; every delivery stays inside the event
/// queue's bucket window.
inline constexpr SimTime kMinLatency = 40;
inline constexpr SimTime kMaxLatency = 160;
static_assert(kMinLatency <= kMaxLatency &&
                  kMaxLatency < EventQueue::kWindow,
              "a latency beyond the window sends every delivery to the "
              "far heap");

/// Read-only snapshot of the network counters (assembled from the
/// MetricsRegistry — see Network::stats()).
struct NetworkStats {
  std::uint64_t messages_sent = 0;      // every send() call
  std::uint64_t messages_loopback = 0;  // self-deliveries (subset of sent)
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;   // filtered + unroutable + lost
  std::uint64_t messages_filtered = 0;  // fault-injection drop filter
  std::uint64_t messages_unroutable = 0;    // disconnected at send time
  std::uint64_t messages_lost_in_flight = 0;  // link cut while in flight
  std::uint64_t bytes_sent = 0;      // admitted to a channel only
  std::uint64_t bytes_rejected = 0;  // filtered or unroutable at send
};

class Network {
 public:
  /// Fault-injection hook, consulted for every send. Return true to drop
  /// the message (used by scenarios to make a process "detach before
  /// receiving the last message", paper section 1).
  using DropFilter = std::function<bool(const Envelope&)>;

  /// Observer invoked after every connectivity change (partition, merge,
  /// crash, recovery). The membership oracle subscribes to this.
  using TopologyObserver = std::function<void()>;

  Network(EventQueue& queue, Rng rng, obs::TraceSink& trace,
          obs::MetricsRegistry& metrics);

  /// Registers process `p`, whose messages `node` receives. All
  /// processes start alive, each in its own singleton component until
  /// set_components is called. The node must outlive the network.
  void add_process(ProcessId p, Node& node);

  // -- connectivity control ------------------------------------------------

  /// Reassigns every listed process to the component given by its group.
  /// Processes not mentioned keep their component. Crashed processes may
  /// be mentioned, but their assignment is never observed: recovery
  /// (set_alive(p, true)) always puts p in a fresh singleton component.
  void set_components(const std::vector<ProcessSet>& groups);

  /// Puts all live processes into one component.
  void merge_all();

  void set_alive(ProcessId p, bool alive);

  [[nodiscard]] bool alive(ProcessId p) const;
  [[nodiscard]] bool connected(ProcessId a, ProcessId b) const;

  /// Current components over live processes, deterministically ordered.
  [[nodiscard]] std::vector<ProcessSet> live_components() const;

  [[nodiscard]] const ProcessSet& all_processes() const noexcept {
    return processes_;
  }

  // -- messaging -------------------------------------------------------------

  /// Sends `env`. Self-sends deliver at the current time (after currently
  /// queued events); remote sends draw a latency in [kMinLatency,
  /// kMaxLatency] and respect per-pair FIFO order. Messages crossing a partition are dropped.
  void send(Envelope env);

  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }
  void clear_drop_filter() { drop_filter_ = nullptr; }

  void add_topology_observer(TopologyObserver observer);

  /// Snapshot of the network counters in the metrics registry.
  [[nodiscard]] NetworkStats stats() const;

  // -- causality -------------------------------------------------------------

  /// Advances `p`'s Lamport clock by one local event and returns the new
  /// value. Protocol layers call this (via sim::Node) when they record a
  /// trace event for a local step.
  std::uint64_t lamport_tick(ProcessId p);

  /// Current Lamport clock of `p` (without advancing it).
  [[nodiscard]] std::uint64_t lamport(ProcessId p) const;

  /// Trace-event id of the most recent topology-change event whose
  /// component contained `p` (0 = none). View installations cite this as
  /// their cause: the view is the membership layer's reaction to that
  /// connectivity change.
  [[nodiscard]] std::uint64_t last_topology_eid(ProcessId p) const;

  /// The pending FIFO tail for the directional channel from -> to: the
  /// latest delivery time already handed out, which the next send may not
  /// precede. Empty when the channel has no outstanding FIFO constraint:
  /// never used, cleared by an epoch bump, or at or before now(), where
  /// it cannot delay a send (every delivery is scheduled at or after
  /// now(), so max(when, tail) == when). Exposed for tests.
  [[nodiscard]] std::optional<SimTime> fifo_tail(ProcessId from,
                                                 ProcessId to) const;

 private:
  struct ProcessEntry {
    bool alive = true;
    std::uint32_t component = 0;
    Node* node = nullptr;
    std::uint64_t lamport = 0;   // Lamport clock of this process
    std::uint64_t topo_eid = 0;  // last topology event covering this process
  };

  /// Connectivity-only snapshot used to detect disconnections across a
  /// topology change.
  struct ConnectivityEntry {
    bool alive = false;
    std::uint32_t component = 0;
  };

  // Routing state is indexed by COMPACT slot, not by raw ProcessId value:
  // add_process assigns each process the next dense slot (registration
  // order), entries_[slot] holds per-process state, and flat triangular
  // arrays hold per-pair state, sized by the number of processes rather
  // than the largest raw id (they would grow quadratically in it
  // otherwise). Raw ids resolve to slots through one direct-lookup
  // vector with an entry per raw id up to the largest registered one:
  // 8 KiB for a 2,048-process fleet, 4 MiB at kProcessIdLimit.
  //
  // The pair index tri(a,b) = max(a,b)·(max(a,b)−1)/2 + min(a,b) over
  // SLOTS depends only on the pair, never on capacity, and a new process
  // always takes the largest slot, so add_process only ever *appends*
  // pair entries — existing indices (and in-flight epoch captures)
  // survive growth untouched.

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Compact slot of `p`, or kNoSlot if never registered.
  [[nodiscard]] std::uint32_t slot_of(ProcessId p) const {
    const std::uint32_t raw = p.value();
    return raw < slot_direct_.size() ? slot_direct_[raw] : kNoSlot;
  }

  [[nodiscard]] bool known(ProcessId p) const {
    return slot_of(p) != kNoSlot;
  }
  /// Unordered-pair index into link_epochs_. Precondition: a != b.
  [[nodiscard]] static std::size_t tri_index(std::uint32_t slot_a,
                                             std::uint32_t slot_b);
  /// Directed-pair index into fifo_tails_. Precondition: from != to.
  [[nodiscard]] static std::size_t directed_index(std::uint32_t slot_from,
                                                  std::uint32_t slot_to);

  [[nodiscard]] std::vector<ConnectivityEntry> snapshot_connectivity() const;
  void bump_epochs_for_disconnections(
      const std::vector<ConnectivityEntry>& before);
  /// Records one kTopologyChange event per live component, citing
  /// `cause` (e.g. the crash/recover event that triggered the change).
  void record_topology(std::uint64_t cause);
  void notify_topology_changed();
  std::uint64_t link_epoch(ProcessId a, ProcessId b) const;
  void count_drop(const Envelope& env, obs::DropCause cause);
  void deliver(Envelope& env, std::uint64_t epoch_at_send);

  EventQueue& queue_;
  Rng rng_;
  obs::TraceSink& trace_;
  obs::MetricsRegistry& metrics_;
  ProcessSet processes_;
  std::vector<std::uint32_t> slot_direct_;  // raw id -> slot
  std::vector<ProcessEntry> entries_;  // indexed by compact slot
  std::vector<std::uint64_t> link_epochs_;  // indexed by tri_index
  // FIFO tails, indexed by directed_index. Stored as tail+1 so 0 means
  // "no outstanding constraint" without a side table. A tail that time
  // has passed stays stored but constrains nothing.
  std::vector<SimTime> fifo_tails_;
  std::uint32_t next_component_ = 1;
  DropFilter drop_filter_;
  std::vector<TopologyObserver> observers_;

  // Hot-path instruments, resolved once at construction.
  obs::Counter& sent_;
  obs::Counter& loopback_;
  obs::Counter& delivered_;
  obs::Counter& filtered_;
  obs::Counter& unroutable_;
  obs::Counter& lost_in_flight_;
  obs::Counter& bytes_sent_;
  obs::Counter& bytes_rejected_;
  obs::Counter& topology_changes_;
};

}  // namespace dynvote::sim
