#include "harness/cluster.hpp"

#include <algorithm>
#include <iterator>

#include "util/ensure.hpp"

namespace dynvote {

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)), sim_(options_.sim) {
  sim_.trace().set_messages_enabled(options_.trace_messages);
  sim_.trace().add_listener(*this);
  DvConfig config = options_.config;
  if (config.core.empty()) config.core = ProcessSet::range(options_.n);
  add_group(std::move(config));
  // The oracle must subscribe after nodes exist but before any topology
  // change, so every view reaches a registered node.
  oracle_ = std::make_unique<MembershipOracle>(sim_);
  if (options_.formation_miss <= 0.0) return;
  miss_rng_ = std::make_unique<Rng>(sim_.rng().split());
  misses_ = std::make_unique<FaultInjector>(sim_.network());
  // On every topology change, each new component may get one member
  // that will miss the session's closing round.
  sim_.network().add_topology_observer([this] { on_topology_for_misses(); });
}

void Cluster::on_topology_for_misses() {
  // Keep the rule list from growing without bound.
  misses_->remove_spent();
  // The closing round of a session: the attempt broadcast for the
  // two-or-more-round protocols, the info exchange for the one-round
  // naive baseline.
  std::string closing = "dv.attempt";
  if (options_.kind == ProtocolKind::kNaiveDynamic) closing = "dv.info";
  if (options_.kind == ProtocolKind::kCentralized) closing = "dvc.commit";
  for (const ProcessSet& component : sim_.network().live_components()) {
    if (component.size() < 2) continue;
    if (!miss_rng_->next_bool(options_.formation_miss)) continue;
    const ProcessId victim = *std::next(
        component.begin(),
        static_cast<std::ptrdiff_t>(miss_rng_->next_below(component.size())));
    const int copies = options_.kind == ProtocolKind::kCentralized
                           ? 1
                           : static_cast<int>(component.size() - 1);
    misses_->drop_to(victim, closing, copies);
  }
}

std::uint32_t Cluster::add_group(DvConfig config) {
  ensure(!config.core.empty(), "add_group: a group needs a core");
  const auto index = static_cast<std::uint32_t>(groups_.size());
  Group group;
  group.checker = std::make_unique<ConsistencyChecker>(
      config.core,
      /*seed_initial=*/options_.kind != ProtocolKind::kStaticMajority);
  // A group with its own registry (a fleet's hub child) reports there.
  group.metrics = std::make_unique<MetricsObserver>(
      config.registry != nullptr ? *config.registry : sim_.metrics());
  group.config = std::move(config);
  groups_.push_back(std::move(group));
  for (ProcessId p : groups_.back().config.core) add_node(p, index);
  return index;
}

std::uint32_t Cluster::group_of(ProcessId p) const {
  ensure(p.value() < group_of_.size() && group_of_[p.value()] != kNoGroup,
         "group_of: process not in the cluster");
  return group_of_[p.value()];
}

void Cluster::note(const obs::TraceEvent& event) {
  switch (event.kind) {
    case obs::TraceEventKind::kViewInstalled:
    case obs::TraceEventKind::kSessionAttempt:
    case obs::TraceEventKind::kSessionFormed:
    case obs::TraceEventKind::kSessionAbort:
    case obs::TraceEventKind::kPrimaryLost:
    case obs::TraceEventKind::kAmbiguityRecord: {
      const Group& g = groups_[group_of(event.a)];
      g.checker->note(event);
      g.metrics->note(event);
      break;
    }
    default:
      break;
  }
}

void Cluster::add_node(ProcessId p, std::uint32_t group) {
  sim_.add_node(make_protocol(options_.kind, sim_, p, at(group).config));
  if (p.value() >= group_of_.size()) group_of_.resize(p.value() + 1, kNoGroup);
  group_of_[p.value()] = group;
  process_ids_.push_back(p);
}

obs::TraceMeta Cluster::trace_meta() const {
  obs::TraceMeta meta;
  meta.protocol = to_string(options_.kind);
  meta.min_quorum = config().min_quorum;
  meta.seed = options_.sim.seed;
  meta.core = config().core;
  for (std::size_t g = 1; g < groups_.size(); ++g) {
    meta.core = meta.core.set_union(groups_[g].config.core);
  }
  meta.n = static_cast<std::uint32_t>(meta.core.size());
  if (groups_.size() > 1) {
    meta.num_groups = num_groups();
    meta.group_size = static_cast<std::uint32_t>(config().core.size());
  }
  // Theorem 1 bounds the simultaneously recorded ambiguous sessions of
  // the garbage-collecting protocol at n − Min_Quorum + 1 within a
  // group; the basic protocol keeps everything (section 4.7) and the
  // section-6 dynamic membership changes n itself, so no bound is
  // claimed there.
  if (options_.kind != ProtocolKind::kOptimized) return meta;
  std::size_t bound = 0;
  for (const Group& group : groups_) {
    const DvConfig& c = group.config;
    if (c.dynamic_participants || c.min_quorum > c.core.size()) return meta;
    bound = std::max(bound, c.core.size() - c.min_quorum + 1);
  }
  meta.ambiguity_bound = bound;
  return meta;
}

ProtocolNode& Cluster::protocol(ProcessId p) {
  auto* protocol = dynamic_cast<ProtocolNode*>(&sim_.node(p));
  ensure(protocol != nullptr, "node is not a protocol instance");
  return *protocol;
}

ProcessSet Cluster::primary_members() {
  ProcessSet out;
  for (ProcessId p : process_ids_) {
    if (sim_.network().alive(p) && protocol(p).is_primary()) out.insert(p);
  }
  return out;
}

std::optional<Session> Cluster::live_primary() {
  std::optional<Session> found;
  for (ProcessId p : process_ids_) {
    if (!sim_.network().alive(p)) continue;
    auto& proto = protocol(p);
    if (!proto.is_primary()) continue;
    const Session& session = *proto.primary_session();
    if (found && !(*found == session)) return std::nullopt;  // ambiguous
    found = session;
  }
  return found;
}

}  // namespace dynvote
