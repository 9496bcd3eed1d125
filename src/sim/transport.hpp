// Transport: the seam between the protocol layer and whatever carries
// its messages.
//
// Every protocol node talks to the world through exactly this surface:
// point-to-point sends, view broadcasts, a clock, stable storage, and the
// observability sinks (trace, metrics, Lamport clock). Two
// implementations exist:
//
//  * sim::Simulator — the discrete-event simulator (sim/network.hpp
//    behind sim/event_queue.hpp): virtual time, deterministic, the
//    correctness oracle;
//  * runtime::PoolTransport — n processes on W worker threads connected
//    by unbounded lock-free SPSC links, real monotonic time
//    (src/runtime/).
//
// There are no timers. The paper's protocols act only on view
// deliveries and round messages, and leave liveness to the membership
// service (section 3.1), so a protocol step never waits on a clock.
//
// The protocol state machines (dv/, baselines/) are written once against
// this interface and run unchanged on both; the cross-check harness
// (runtime/crosscheck.hpp) holds them to identical outcomes.
//
// Threading contract: every method takes the acting ProcessId (or an
// Envelope naming it). A call on behalf of process p may only be made
// from p's execution context — the event-loop thread in the simulator
// (trivially single-threaded) or the worker that owns p in the runtime.
// Implementations rely on this to keep per-process state unsynchronized.
//
// Payload ownership: a send's envelope owns its payload. A broadcast's
// envelopes may only borrow it (see broadcast), so a payload handed to
// Node::on_message is readable until the receiver's next view install
// or crash, and no longer.
#pragma once

#include <cstdint>
#include <string>

#include "sim/message.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace dynvote::obs

namespace dynvote::sim {

class StableStorage;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one envelope. Delivery is asynchronous, per-pair FIFO, and
  /// dropped when sender and receiver are not connected (or the link's
  /// epoch changes while the message is in flight — a partition loses
  /// in-flight traffic, paper section 3).
  virtual void send(Envelope env) = 0;

  /// Sends `payload` from `from`, tagged with `view`, to every process in
  /// `members` (the sender included), in member order: per member, the
  /// same routing, stamping and drop rule as send. The simulator sends one
  /// owning envelope per member. The pool keeps the one owning reference
  /// on the sender's worker and gives every envelope a borrowed pointer,
  /// freeing the payload only once every member has installed a view
  /// newer than `view`; receivers must therefore not read it after their
  /// next view install or crash (sim/node.hpp, Node::on_message).
  virtual void broadcast(ProcessId from, ViewId view,
                         const ProcessSet& members, PayloadPtr payload) = 0;

  /// The clock protocols timestamp their trace events with: virtual
  /// ticks in the simulator, microseconds of monotonic time since
  /// transport start in the runtime backend.
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Process p's stable storage: survives crashes, lost only by
  /// crash_and_destroy_disk (paper footnote 4).
  [[nodiscard]] virtual StableStorage& storage(ProcessId p) = 0;

  /// Structured trace sink for p's events. The simulator shares one sink
  /// across processes (globally ordered eids); the runtime backend keeps
  /// one per process (eids are per-process there).
  [[nodiscard]] virtual obs::TraceSink& trace(ProcessId p) = 0;

  /// Counter/gauge/histogram registry for p's instruments.
  [[nodiscard]] virtual obs::MetricsRegistry& metrics(ProcessId p) = 0;

  /// Advances and returns p's Lamport clock — one tick per trace event a
  /// protocol records for a local step.
  virtual std::uint64_t lamport_tick(ProcessId p) = 0;

  /// Trace-event id of the topology change that last reshaped p's
  /// component (0 = none); the causal parent of view installs.
  [[nodiscard]] virtual std::uint64_t last_topology_eid(ProcessId p) const = 0;
};

}  // namespace dynvote::sim
