// SimTransport: the discrete-event simulator as a Transport.
//
// A thin adapter over the Simulator's existing parts — Network for
// sends and Lamport clocks, the shared TraceSink / MetricsRegistry /
// per-process StableStorage map. Owned by
// the Simulator itself (sim.transport()); protocol nodes hold only the
// Transport& and never see the Simulator.
#pragma once

#include "sim/transport.hpp"

namespace dynvote::sim {

class Simulator;

class SimTransport final : public Transport {
 public:
  explicit SimTransport(Simulator& sim) : sim_(sim) {}

  void send(Envelope env) override;
  [[nodiscard]] SimTime now() const override;
  [[nodiscard]] StableStorage& storage(ProcessId p) override;
  [[nodiscard]] obs::TraceSink& trace(ProcessId p) override;
  [[nodiscard]] obs::MetricsRegistry& metrics(ProcessId p) override;
  std::uint64_t lamport_tick(ProcessId p) override;
  [[nodiscard]] std::uint64_t last_topology_eid(ProcessId p) const override;

 private:
  Simulator& sim_;
};

}  // namespace dynvote::sim
