// Node: base class for a simulated process.
//
// A Node reacts to three kinds of stimuli — membership views, protocol
// messages, crash/recovery — and may send messages and write stable
// storage. The base class owns the mechanics the paper's model demands:
//
//  * view-tagged delivery (section 3.1 causality): a message sent in view
//    V is handed to the protocol only while the receiver is in V;
//    messages for views the receiver hasn't installed yet are buffered,
//    messages for superseded views are discarded;
//  * crash semantics: volatile state vanishes, stable storage persists.
//
// Protocol implementations override the on_* hooks.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "membership/view.hpp"
#include "sim/message.hpp"
#include "sim/transport.hpp"
#include "util/ids.hpp"

namespace dynvote::sim {

class Simulator;

class Node {
 public:
  /// A node lives on a Transport (sim/transport.hpp): the simulator's
  /// event queue or the pool runtime's worker threads.
  Node(Transport& transport, ProcessId id);

  /// Convenience for simulator-driven code and tests: equivalent to
  /// Node(sim.transport(), id).
  Node(Simulator& sim, ProcessId id);

  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] const std::optional<View>& current_view() const noexcept {
    return view_;
  }

  // -- entry points invoked by the simulator / oracle / network ------------

  /// Installs a new membership view: flushes buffered messages belonging
  /// to it, drops messages from older views, then calls on_view.
  void deliver_view(const View& view);

  /// Routes an incoming envelope through the view gate (buffer / drop /
  /// hand to on_message).
  void deliver_message(Envelope env);

  /// Crash: wipe volatile state. The simulator keeps stable storage.
  void crash();

  /// Recovery: the protocol should reload its persistent state in
  /// on_recover; a fresh view will arrive from the membership oracle.
  void recover();

 protected:
  /// A new membership was reported. `view.members` always contains this
  /// process.
  virtual void on_view(const View& view) = 0;

  /// A protocol message arrived, sent by `from` in the current view. The
  /// envelope's reference is handed over, so a protocol that keeps the
  /// payload moves it instead of bumping its refcount.
  virtual void on_message(ProcessId from, PayloadPtr payload) = 0;

  virtual void on_crash() {}
  virtual void on_recover() {}

  /// Sends `payload` to `to`, tagged with the current view. Requires a
  /// current view. Self-sends are permitted and delivered like any other.
  void send(ProcessId to, PayloadPtr payload);

  /// Sends `payload` to every member of the current view, including this
  /// process itself — the paper's symmetric protocol has each process
  /// receive its own round messages too.
  void broadcast(PayloadPtr payload);

  [[nodiscard]] Transport& transport() noexcept { return transport_; }
  [[nodiscard]] StableStorage& storage();
  [[nodiscard]] SimTime now() const;

  /// The simulation's structured trace sink / metrics registry, so
  /// protocol layers can record events without including simulator.hpp.
  [[nodiscard]] obs::TraceSink& trace();
  [[nodiscard]] obs::MetricsRegistry& metrics();

  /// Advances and returns this process's Lamport clock — one call per
  /// trace event a protocol layer records for a local step.
  std::uint64_t lamport_tick();

  /// Trace-event id of the topology change that last reshaped this
  /// process's component (0 = none); the causal parent of view installs.
  [[nodiscard]] std::uint64_t last_topology_eid() const;

 private:
  Transport& transport_;
  ProcessId id_;
  bool alive_ = true;
  std::optional<View> view_;
  std::vector<Envelope> buffered_;  // messages for views not yet installed
};

}  // namespace dynvote::sim
