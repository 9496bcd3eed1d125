// Simulator: the composition root for one simulated execution.
//
// Owns virtual time, the network, per-process stable storage, the random
// stream, and the registered nodes. Scenario scripts and the
// availability harness drive executions exclusively through this class.
// It is also the Transport (sim/transport.hpp) its protocol nodes are
// constructed against: sends go to the Network, and every process shares
// the one clock, trace sink and metrics registry.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/stable_storage.hpp"
#include "sim/transport.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"

namespace dynvote::sim {

struct SimulatorOptions {
  std::uint64_t seed = 1;
};

class Simulator final : public Transport {
 public:
  explicit Simulator(SimulatorOptions options = {});

  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
  [[nodiscard]] SimTime now() const noexcept override { return queue_.now(); }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] Network& network() noexcept { return network_; }

  /// Structured event trace for this execution (obs/trace.hpp). Message
  /// events are off by default; enable via trace().set_messages_enabled.
  [[nodiscard]] obs::TraceSink& trace() noexcept { return trace_; }
  [[nodiscard]] const obs::TraceSink& trace() const noexcept { return trace_; }

  /// Counter/gauge/histogram registry shared by the simulator layers.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Per-process stable storage; created on first use and retained for
  /// the lifetime of the simulation (survives node crashes).
  [[nodiscard]] StableStorage& storage(ProcessId p) override;

  // -- the rest of the Transport -----------------------------------------------

  void send(Envelope env) override { network_.send(std::move(env)); }
  /// One owning send per member: the network schedules, counts and drops
  /// each like any send, and the single-threaded DES has no count to
  /// contend.
  void broadcast(ProcessId from, ViewId view, const ProcessSet& members,
                 PayloadPtr payload) override {
    for (const ProcessId to : members) {
      network_.send(Envelope{from, to, view, payload});
    }
  }
  [[nodiscard]] obs::TraceSink& trace(ProcessId) override { return trace_; }
  [[nodiscard]] obs::MetricsRegistry& metrics(ProcessId) override {
    return metrics_;
  }
  std::uint64_t lamport_tick(ProcessId p) override {
    return network_.lamport_tick(p);
  }
  [[nodiscard]] std::uint64_t last_topology_eid(ProcessId p) const override {
    return network_.last_topology_eid(p);
  }

  /// Registers a node (a protocol instance). The process must not have
  /// been registered before. Takes ownership.
  void add_node(std::unique_ptr<Node> node);

  [[nodiscard]] Node& node(ProcessId p);
  [[nodiscard]] const ProcessSet& processes() const noexcept {
    return network_.all_processes();
  }

  // -- fault injection -------------------------------------------------------

  /// Partitions the network into the given disjoint groups (plus
  /// unchanged assignments for unmentioned processes).
  void set_components(const std::vector<ProcessSet>& groups);
  void merge_all();

  void crash(ProcessId p);
  void recover(ProcessId p);
  /// Crash with total loss of stable storage (paper footnote 4).
  void crash_and_destroy_disk(ProcessId p);

  // -- execution ---------------------------------------------------------------

  /// Runs every pending event (bounded by max_events as a runaway guard).
  /// Returns number of events executed. A tripped event budget leaves
  /// the queue non-empty — callers that must fail loudly check
  /// queue().empty() afterwards (Cluster::settle does).
  std::size_t run_to_quiescence(
      std::size_t max_events = EventQueue::kDefaultMaxEvents);

  /// Runs events with timestamps <= t and advances the clock to t.
  std::size_t run_until(SimTime t);

  /// Runs events for `delta` ticks of virtual time.
  std::size_t advance(SimTime delta) { return run_until(now() + delta); }

 private:
  Rng rng_;
  EventQueue queue_;
  obs::TraceSink trace_;
  obs::MetricsRegistry metrics_;
  Network network_;  // references trace_/metrics_; keep it declared after
  std::map<ProcessId, std::unique_ptr<Node>> nodes_;
  std::map<ProcessId, StableStorage> storages_;
};

}  // namespace dynvote::sim
