#include "sim/sim_transport.hpp"

#include <utility>

#include "sim/simulator.hpp"

namespace dynvote::sim {

void SimTransport::send(Envelope env) { sim_.network().send(std::move(env)); }

SimTime SimTransport::now() const { return sim_.now(); }

StableStorage& SimTransport::storage(ProcessId p) { return sim_.storage(p); }

obs::TraceSink& SimTransport::trace(ProcessId /*p*/) { return sim_.trace(); }

obs::MetricsRegistry& SimTransport::metrics(ProcessId /*p*/) {
  return sim_.metrics();
}

std::uint64_t SimTransport::lamport_tick(ProcessId p) {
  return sim_.network().lamport_tick(p);
}

std::uint64_t SimTransport::last_topology_eid(ProcessId p) const {
  return sim_.network().last_topology_eid(p);
}

}  // namespace dynvote::sim
