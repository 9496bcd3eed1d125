#include "shard/sharded_fleet.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/hub.hpp"
#include "obs/timeseries.hpp"
#include "util/ensure.hpp"

namespace dynvote::shard {

namespace {
/// Ring bound of the fleet's structured trace: every fleet fault records
/// one topology event per live component, and a sharded fleet has
/// hundreds of those.
constexpr std::size_t kTraceCapacity = 4096;
}  // namespace

ShardedFleet::~ShardedFleet() = default;

ShardedFleet::ShardedFleet(ShardedFleetOptions options) : options_(options) {
  ensure(options_.num_groups > 0, "ShardedFleet: need at least one group");
  ensure(options_.group_size > 0, "ShardedFleet: need group_size >= 1");
  ensure(options_.group_size <= options_.num_machines,
         "ShardedFleet: a group's replicas must fit on distinct machines");
  // Group 0 is the cluster's own: the fleet's protocol and seed over the
  // first group_size ids.
  ClusterOptions first;
  first.kind = options_.kind;
  first.n = options_.group_size;
  first.sim = options_.sim;
  first.config.min_quorum = kFleetMinQuorum;
  // The WAL replay audit is a debug check too costly at fleet scale;
  // bench_persistence measures it.
  first.config.persistence.cross_check = false;
  if (options_.telemetry.enabled) {
    hub_ = std::make_unique<obs::MetricsHub>(options_.num_groups);
    first.config.registry = &hub_->group(0);
  }
  cluster_ = std::make_unique<Cluster>(std::move(first));
  sim().trace().set_capacity(kTraceCapacity);
  machine_replicas_.resize(options_.num_machines);
  if (hub_ != nullptr) {
    flight_ = std::make_unique<obs::FlightRecorder>(
        obs::FlightRecorderOptions{options_.num_groups, options_.group_size});
    sim().trace().add_listener(*flight_);
  }
  // After the recorder: a formation lands in its group's ring before it
  // closes the window, so an outlier post-mortem ends with it.
  sim().trace().add_listener(*this);

  // Groups 1..G-1 follow group 0 in the same group-major id order, each
  // reporting to its own hub child when telemetry is on.
  groups_.resize(options_.num_groups);
  for (std::uint32_t g = 0; g < options_.num_groups; ++g) {
    if (g > 0) {
      DvConfig config = cluster_->config();
      config.core = ProcessSet();
      for (std::uint32_t i = 0; i < options_.group_size; ++i) {
        config.core.insert(replica_id(g, i));
      }
      if (hub_ != nullptr) config.registry = &hub_->group(g);
      cluster_->add_group(std::move(config));
    }
    for (std::uint32_t i = 0; i < options_.group_size; ++i) {
      machine_replicas_[machine_of(g, i)].push_back(replica_id(g, i));
    }
    if (hub_ != nullptr) {
      obs::MetricsRegistry& registry = hub_->group(g);
      groups_[g].reconfig_hist =
          &registry.histogram("shard.reconfig_latency_ticks");
      groups_[g].reconfigs = &registry.counter("shard.reconfigs");
    }
  }
  if (hub_ != nullptr) {
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(*hub_);
    sampler_->track_counter("dv.formed");
    sampler_->track_counter("dv.rejected");
    sampler_->track_counter("dv.storage.wal_bytes");
    sampler_->track_gauge("dv.ambiguous_recorded");
  }
}

ProcessId ShardedFleet::replica_id(std::uint32_t group,
                                   std::uint32_t index) const {
  ensure(group < options_.num_groups && index < options_.group_size,
         "replica_id out of range");
  return ProcessId{group * options_.group_size + index};
}

std::uint32_t ShardedFleet::machine_of(std::uint32_t group,
                                       std::uint32_t index) const {
  // Rotating placement: member i of group g lands on machine (g + i) mod
  // M. Within one group the machines are distinct (group_size <= M), and
  // consecutive groups are shifted by one, so any machine cut splits
  // different groups at different member offsets — the correlated but
  // non-identical failure pattern a real fleet produces.
  return (group + index) % options_.num_machines;
}

const ProcessSet& ShardedFleet::group_members(std::uint32_t group) const {
  return cluster_->config(group).core;
}

const std::vector<ProcessId>& ShardedFleet::machine_replicas(
    std::uint32_t machine) const {
  ensure(machine < machine_replicas_.size(), "machine out of range");
  return machine_replicas_[machine];
}

void ShardedFleet::start() {
  merge_fleet();
  settle();
}

void ShardedFleet::partition_fleet(const MachinePartition& sides) {
  std::vector<bool> seen(options_.num_machines, false);
  std::size_t covered = 0;
  for (const auto& side : sides) {
    for (const std::uint32_t m : side) {
      ensure(m < options_.num_machines, "partition_fleet: unknown machine");
      ensure(!seen[m], "partition_fleet: machine on two sides");
      seen[m] = true;
      ++covered;
    }
  }
  ensure(covered == options_.num_machines,
         "partition_fleet: sides must cover every machine");

  // side_of[machine] -> side index.
  std::vector<std::uint32_t> side_of(options_.num_machines, 0);
  for (std::uint32_t s = 0; s < sides.size(); ++s) {
    for (const std::uint32_t m : sides[s]) side_of[m] = s;
  }

  std::vector<std::vector<ProcessSet>> per_group(groups_.size());
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    std::vector<ProcessSet> components(sides.size());
    for (std::uint32_t i = 0; i < options_.group_size; ++i) {
      components[side_of[machine_of(g, i)]].insert(replica_id(g, i));
    }
    for (ProcessSet& component : components) {
      if (!component.empty()) per_group[g].push_back(std::move(component));
    }
  }
  apply_components(std::move(per_group));
}

void ShardedFleet::merge_fleet() {
  std::vector<std::vector<ProcessSet>> per_group(groups_.size());
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    per_group[g].push_back(group_members(g));
  }
  apply_components(std::move(per_group));
}

void ShardedFleet::apply_components(
    std::vector<std::vector<ProcessSet>> per_group) {
  // One network call for the whole correlated fault: every group's
  // components land in the same topology change, exactly as one fleet
  // event would. Components never span groups, so the shared oracle
  // announces views drawn from single groups only.
  std::vector<ProcessSet> all;
  for (const auto& components : per_group) {
    all.insert(all.end(), components.begin(), components.end());
  }
  const SimTime now = sim().now();
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].last_components != per_group[g]) {
      groups_[g].reconfig_pending_since = now;
      groups_[g].last_components = std::move(per_group[g]);
    }
  }
  sim().set_components(all);
}

void ShardedFleet::mark_groups_on_machine_pending(std::uint32_t machine) {
  const SimTime now = sim().now();
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    for (std::uint32_t i = 0; i < options_.group_size; ++i) {
      if (machine_of(g, i) == machine) {
        groups_[g].reconfig_pending_since = now;
        break;
      }
    }
  }
}

void ShardedFleet::crash_machine(std::uint32_t machine) {
  ensure(machine < options_.num_machines, "unknown machine");
  mark_groups_on_machine_pending(machine);
  for (const ProcessId p : machine_replicas_[machine]) sim().crash(p);
}

void ShardedFleet::recover_machine(std::uint32_t machine) {
  ensure(machine < options_.num_machines, "unknown machine");
  mark_groups_on_machine_pending(machine);
  for (const ProcessId p : machine_replicas_[machine]) sim().recover(p);
  // A recovered replica comes back in its own singleton component;
  // reapply every group's intended layout so it rejoins its group
  // (unchanged groups diff equal and stay out of the latency sample).
  std::vector<std::vector<ProcessSet>> per_group(groups_.size());
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    per_group[g] = groups_[g].last_components;
    if (per_group[g].empty()) per_group[g].push_back(group_members(g));
  }
  apply_components(std::move(per_group));
}

void ShardedFleet::settle(std::size_t max_events) {
  cluster_->settle(max_events);
  // Opportunistic sampling: settle() brackets every fault in a fleet
  // scenario, and the sampler's own tick spacing bounds retention.
  if (sampler_ != nullptr) sampler_->sample(sim().now());
}

std::uint64_t ShardedFleet::total_formed_sessions() const {
  std::uint64_t total = 0;
  for (std::uint32_t g = 0; g < options_.num_groups; ++g) {
    total += cluster_->checker(g).formed_session_count();
  }
  return total;
}

std::uint32_t ShardedFleet::groups_with_live_primary() {
  std::set<std::uint32_t> groups;
  for (const auto& [session, members] : cluster_->live_primaries()) {
    groups.insert(cluster_->group_of(*members.begin()));
  }
  return static_cast<std::uint32_t>(groups.size());
}

std::vector<Violation> ShardedFleet::check_all_groups() const {
  std::vector<Violation> out;
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    for (Violation v : cluster_->checker(g).check_all()) {
      v.detail = "group " + std::to_string(g) + ": " + v.detail;
      out.push_back(std::move(v));
    }
  }
  return out;
}

void ShardedFleet::note(const obs::TraceEvent& event) {
  if (event.kind != obs::TraceEventKind::kSessionFormed) return;
  const std::uint32_t group = cluster_->group_of(event.a);
  Group& g = groups_[group];
  if (!g.reconfig_pending_since) return;
  const SimTime time = event.time;
  const SimTime fault = *g.reconfig_pending_since;
  const SimTime ticks = time - fault;
  reconfig_samples_.push_back(ReconfigSample{group, fault, time});
  g.reconfig_pending_since.reset();
  if (hub_ == nullptr) return;
  g.reconfig_hist->observe(ticks);
  g.reconfigs->add(1);
  if (options_.telemetry.reconfig_outlier_ticks != 0 &&
      ticks > options_.telemetry.reconfig_outlier_ticks &&
      postmortems_.size() < kMaxPostmortems) {
    postmortems_.push_back(flight_->postmortem_json(
        group,
        "reconfig-latency-outlier: " + std::to_string(ticks) + " ticks (> " +
            std::to_string(options_.telemetry.reconfig_outlier_ticks) + ")",
        time));
  }
}

obs::MetricsHub& ShardedFleet::hub() {
  ensure(hub_ != nullptr, "ShardedFleet: telemetry is disabled");
  return *hub_;
}

const obs::MetricsHub& ShardedFleet::hub() const {
  ensure(hub_ != nullptr, "ShardedFleet: telemetry is disabled");
  return *hub_;
}

const obs::FlightRecorder& ShardedFleet::flight_recorder() const {
  ensure(flight_ != nullptr, "ShardedFleet: telemetry is disabled");
  return *flight_;
}

std::size_t ShardedFleet::check_and_record_postmortems() {
  ensure(flight_ != nullptr, "ShardedFleet: telemetry is disabled");
  std::size_t recorded = 0;
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    const std::vector<Violation> violations =
        cluster_->checker(g).check_all();
    if (violations.empty()) continue;
    if (postmortems_.size() >= kMaxPostmortems) break;
    postmortems_.push_back(flight_->postmortem_json(
        g,
        "consistency-violation " + violations.front().kind + ": " +
            violations.front().detail,
        sim().now()));
    ++recorded;
  }
  return recorded;
}

JsonValue ShardedFleet::telemetry_json() const {
  ensure(hub_ != nullptr, "ShardedFleet: telemetry is disabled");
  JsonValue out = JsonValue::object();
  out.reserve(11);
  out.set("schema_version",
          JsonValue(static_cast<std::int64_t>(kFleetTelemetrySchemaVersion)));
  out.set("num_groups",
          JsonValue(static_cast<std::uint64_t>(options_.num_groups)));
  out.set("group_size",
          JsonValue(static_cast<std::uint64_t>(options_.group_size)));
  out.set("num_machines",
          JsonValue(static_cast<std::uint64_t>(options_.num_machines)));
  out.set("protocol", JsonValue(to_string(options_.kind)));
  out.set("rollup", hub_->rollup().to_json());

  JsonValue groups = JsonValue::array();
  groups.reserve(groups_.size());
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    groups.push_back(hub_->group(g).to_json());
  }
  out.set("groups", std::move(groups));

  // Top-k slowest reconfigurations, latency-descending with formation
  // order as the tie-break (stable_sort over the formation-ordered
  // samples), so the ranking is deterministic.
  std::vector<std::size_t> order(reconfig_samples_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return reconfig_samples_[a].latency() >
                            reconfig_samples_[b].latency();
                   });
  constexpr std::size_t kTopK = 8;
  if (order.size() > kTopK) order.resize(kTopK);
  JsonValue slowest = JsonValue::array();
  slowest.reserve(order.size());
  for (const std::size_t i : order) {
    const ReconfigSample& s = reconfig_samples_[i];
    JsonValue entry = JsonValue::object();
    entry.reserve(4);
    entry.set("group", JsonValue(static_cast<std::uint64_t>(s.group)));
    entry.set("fault_time", JsonValue(s.fault_time));
    entry.set("formed_time", JsonValue(s.formed_time));
    entry.set("latency_ticks", JsonValue(s.latency()));
    slowest.push_back(std::move(entry));
  }
  out.set("slowest_reconfigs", std::move(slowest));

  out.set("timeseries", sampler_->to_json());

  JsonValue postmortems = JsonValue::array();
  postmortems.reserve(postmortems_.size());
  for (const JsonValue& pm : postmortems_) postmortems.push_back(pm);
  out.set("postmortems", std::move(postmortems));
  return out;
}

}  // namespace dynvote::shard
