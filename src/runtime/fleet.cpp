#include "runtime/fleet.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "util/ensure.hpp"

namespace dynvote::runtime {

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

/// The fleet's config, with an empty core filled in as ids 0..n-1.
DvConfig with_core(const FleetOptions& options) {
  DvConfig config = options.config;
  if (config.core.empty()) {
    ensure(options.n > 0, "fleet needs at least one process");
    for (std::uint32_t i = 0; i < options.n; ++i) {
      config.core.insert(ProcessId(i));
    }
  }
  return config;
}

}  // namespace

RuntimeFleet::RuntimeFleet(FleetOptions options)
    : options_(std::move(options)),
      config_(with_core(options_)),
      transport_({config_.core.begin(), config_.core.end()}, options_.workers,
                 options_.runtime) {
  const std::vector<ProcessId>& ids = transport_.processes();
  nodes_.reserve(ids.size());
  for (ProcessId p : ids) {
    nodes_.push_back(make_protocol(options_.kind, transport_, p, config_));
    transport_.set_node(nodes_.back().get());
  }
}

RuntimeFleet::~RuntimeFleet() { stop(); }

std::size_t RuntimeFleet::slot_of(ProcessId p) const {
  // The transport lists ids in config_.core order, which is ascending.
  const auto& ids = transport_.processes();
  const auto it = std::lower_bound(ids.begin(), ids.end(), p);
  if (it == ids.end() || *it != p) {
    invariant_failed("unknown fleet process " + to_string(p));
  }
  return static_cast<std::size_t>(it - ids.begin());
}

ProtocolNode& RuntimeFleet::protocol(ProcessId p) {
  return *nodes_[slot_of(p)];
}

void RuntimeFleet::start() {
  ensure(!started_, "one lifecycle per fleet");
  started_ = true;
  transport_.start();
  merge();
}

void RuntimeFleet::stop() { transport_.stop_and_join(); }

void RuntimeFleet::partition(const std::vector<ProcessSet>& groups) {
  transport_.set_components(groups);
  finish_verb();
}

void RuntimeFleet::merge() {
  transport_.merge_all();
  finish_verb();
}

void RuntimeFleet::crash(ProcessId p) {
  transport_.crash(p);
  finish_verb();
}

void RuntimeFleet::recover(ProcessId p) {
  transport_.recover(p);
  finish_verb();
}

void RuntimeFleet::finish_verb() {
  for (const View& view : views_.announce(transport_.live_components())) {
    transport_.post_view(view);
  }
  transport_.quiesce();
}

std::vector<ProcessProbe> RuntimeFleet::probe() {
  const auto& ids = transport_.processes();
  std::vector<ProcessProbe> probes(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ProcessProbe& slot = probes[i];
    slot.id = ids[i];
    slot.alive = transport_.alive(ids[i]);
    ProtocolNode* node = nodes_[i].get();
    // Reads run on the owning thread; quiesce() below is the barrier
    // that publishes them back to the controller.
    transport_.run_on(ids[i], [&slot, node] {
      slot.is_primary = node->is_primary();
      slot.primary = node->primary_session();
      slot.formed_count = node->formed_count();
    });
  }
  transport_.quiesce();
  return probes;
}

std::size_t RuntimeFleet::distinct_primaries(
    const std::vector<ProcessProbe>& probes) {
  std::set<Session> sessions;
  for (const ProcessProbe& probe : probes) {
    if (probe.alive && probe.is_primary && probe.primary) {
      sessions.insert(*probe.primary);
    }
  }
  return sessions.size();
}

void append_outcome_line(std::string& out, ProcessId p,
                         const obs::Ring<obs::TraceEvent>& events,
                         const ProtocolNode& node) {
  out += to_string(p) + ":";
  for (const obs::TraceEvent& event : events) {
    if (event.a != p) continue;
    switch (event.kind) {
      case obs::TraceEventKind::kViewInstalled:
        out += " V" + std::to_string(event.number) + "=" +
               to_string(event.members);
        break;
      case obs::TraceEventKind::kSessionFormed:
        out += " F" + std::to_string(event.number) + "r" +
               std::to_string(event.value) + "=" + to_string(event.members);
        break;
      default:
        break;
    }
  }
  out += " | primary=" + to_string(node.primary_session()) +
         " formed=" + std::to_string(node.formed_count()) + "\n";
}

std::string RuntimeFleet::outcome_summary() {
  ensure(!transport_.running(),
         "outcome_summary requires a stopped fleet (stop() first)");
  std::string out;
  const auto& ids = transport_.processes();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    append_outcome_line(out, ids[i], transport_.trace(ids[i]).events(),
                        *nodes_[i]);
  }
  return out;
}

std::uint64_t RuntimeFleet::outcome_digest() {
  return fnv1a64(outcome_summary());
}

}  // namespace dynvote::runtime
