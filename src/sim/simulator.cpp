#include "sim/simulator.hpp"

#include "util/ensure.hpp"

namespace dynvote::sim {

Simulator::Simulator(SimulatorOptions options)
    : rng_(options.seed),
      network_(queue_, Rng(options.seed ^ 0x9E3779B97F4A7C15ULL), trace_,
               metrics_) {
  trace_.bind_metrics(metrics_);
}

StableStorage& Simulator::storage(ProcessId p) { return storages_[p]; }

void Simulator::add_node(std::unique_ptr<Node> node) {
  ensure(node != nullptr, "null node");
  const ProcessId p = node->id();
  ensure(!nodes_.contains(p), "node registered twice");
  network_.add_process(p, *node);
  nodes_.emplace(p, std::move(node));
}

Node& Simulator::node(ProcessId p) {
  auto it = nodes_.find(p);
  if (it == nodes_.end()) invariant_failed("unknown node " + to_string(p));
  return *it->second;
}

void Simulator::set_components(const std::vector<ProcessSet>& groups) {
  network_.set_components(groups);
}

void Simulator::merge_all() { network_.merge_all(); }

void Simulator::crash(ProcessId p) {
  if (!network_.alive(p)) return;
  node(p).crash();
  network_.set_alive(p, false);
}

void Simulator::recover(ProcessId p) {
  if (network_.alive(p)) return;
  node(p).recover();
  network_.set_alive(p, true);
}

void Simulator::crash_and_destroy_disk(ProcessId p) {
  crash(p);
  storage(p).destroy();
}

std::size_t Simulator::run_to_quiescence(std::size_t max_events) {
  return queue_.run_all(max_events);
}

std::size_t Simulator::run_until(SimTime t) { return queue_.run_until(t); }

}  // namespace dynvote::sim
