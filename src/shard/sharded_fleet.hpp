// ShardedFleet: many primary-component groups over one shared simulator.
//
// The paper maintains one consistent primary component per group; a
// deployment (ROADMAP north star, open item 1) runs hundreds of such
// groups — one per key range — over a shared fleet of machines, each
// machine participating in many groups at once. This class lays such a
// fleet out over one harness Cluster:
//
//   * the Cluster's simulator carries every group's traffic and its one
//     MembershipOracle serves them all — the oracle announces views per
//     changed component, and fleet faults are always translated to
//     per-group component lists, so a component never spans groups and
//     every view a protocol node sees is drawn from its own group;
//   * each group is one of the Cluster's consistency groups (its own
//     DvConfig core, ConsistencyChecker and MetricsObserver) — the
//     consistency guarantee is per group, the simulation substrate is
//     shared;
//   * a *machine* hosts one replica of every group placed on it; fleet
//     faults (partition, crash) hit machines, and therefore hit all
//     hosted groups at once — the correlated-failure regime the
//     multi-group evaluations in PAPERS.md use;
//   * replica ProcessIds are assigned densely in registration order
//     (group-major), which keeps ProcessSet bitset widths proportional
//     to the fleet size and the network's compact-slot tables exact.
//
// Reconfiguration latency: whenever a fleet fault changes a group's
// component layout, the group is marked pending; the first subsequent
// session formation in that group closes the window and records
// (formation time - fault time) as one latency sample. The fleet reads
// formations as a listener on the simulator's trace sink, after the
// flight recorder, so an outlier post-mortem ends with the formation
// that closed its window. bench_shards reports the p99 of these samples
// across all groups and seeds.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "harness/cluster.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace dynvote::obs {
class FlightRecorder;
class MetricsHub;
class TimeSeriesSampler;
}  // namespace dynvote::obs

namespace dynvote::shard {

/// Version stamped into telemetry_json(); bump on any incompatible
/// change to the fleet-telemetry payload shape.
/// v2: exported histograms carry explicit "unit" metadata
/// ("ticks" | "ns" | "us" | "bytes", inferred from the _<unit> name
/// suffix) so consumers stop guessing units from names.
inline constexpr int kFleetTelemetrySchemaVersion = 2;

/// The fleet-scale telemetry layer (obs/hub, obs/timeseries,
/// obs/flight_recorder) wired through a ShardedFleet. Telemetry never
/// perturbs the simulation: enabled or not, the event schedule and every
/// protocol decision are identical (bench_shards asserts digest equality
/// between modes and measures the overhead against a 5% budget).
///
/// The time series and the flight recorder keep their obs-level bounds
/// (obs::kTimeSeriesTick, obs::kTimeSeriesCapacity,
/// obs::kFlightRecorderCapacity): a sample per 2,000 ticks with 512
/// retained, and 64 protocol events per group.
struct FleetTelemetryOptions {
  bool enabled = true;
  /// Reconfiguration latency (ticks) above which the group's flight
  /// recorder dumps an outlier post-mortem. 0 = no outlier capture.
  SimTime reconfig_outlier_ticks = 0;
};

/// Cap on post-mortems retained per run (outliers + violations).
inline constexpr std::size_t kMaxPostmortems = 16;

struct ShardedFleetOptions {
  /// Number of independent primary-component groups (= shards).
  std::uint32_t num_groups = 16;
  /// Replicas per group. Must not exceed num_machines, so a group's
  /// replicas land on distinct machines.
  std::uint32_t group_size = 3;
  /// Physical hosts. Fleet faults (partitions, crashes) are expressed in
  /// machines; every group with replicas on both sides of a cut splits.
  std::uint32_t num_machines = 8;
  ProtocolKind kind = ProtocolKind::kOptimized;
  sim::SimulatorOptions sim;
  FleetTelemetryOptions telemetry;
};

/// Min_Quorum of every group's DvConfig.
inline constexpr std::size_t kFleetMinQuorum = 1;

class ShardedFleet final : private obs::TraceListener {
 public:
  /// A fleet-level partition: disjoint sets of machine indices. Must
  /// cover every machine exactly once (so the induced per-group
  /// component lists are total and deterministic).
  using MachinePartition = std::vector<std::vector<std::uint32_t>>;

  explicit ShardedFleet(ShardedFleetOptions options);
  ~ShardedFleet() override;  // out of line: the obs types are incomplete here

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  /// The Cluster the fleet's groups run in: group g is its group g.
  [[nodiscard]] Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] sim::Simulator& sim() noexcept { return cluster_->sim(); }
  [[nodiscard]] std::uint32_t num_groups() const noexcept {
    return options_.num_groups;
  }
  [[nodiscard]] std::uint32_t group_size() const noexcept {
    return options_.group_size;
  }
  [[nodiscard]] std::uint32_t num_machines() const noexcept {
    return options_.num_machines;
  }
  /// Total replica processes (= num_groups * group_size).
  [[nodiscard]] std::uint32_t fleet_n() const noexcept {
    return options_.num_groups * options_.group_size;
  }

  // -- topology of the fleet ---------------------------------------------------

  /// The replica ProcessId of member `index` of `group`.
  [[nodiscard]] ProcessId replica_id(std::uint32_t group,
                                     std::uint32_t index) const;
  /// The machine hosting member `index` of `group`.
  [[nodiscard]] std::uint32_t machine_of(std::uint32_t group,
                                         std::uint32_t index) const;
  [[nodiscard]] const ProcessSet& group_members(std::uint32_t group) const;
  /// All replicas hosted on `machine`, across groups.
  [[nodiscard]] const std::vector<ProcessId>& machine_replicas(
      std::uint32_t machine) const;

  // -- fleet faults ------------------------------------------------------------

  /// Connects every group into one component and settles: the usual way
  /// to start (never merges across groups).
  void start();

  /// Applies a machine-level cut: every group is split into one
  /// component per side that hosts at least one of its replicas.
  void partition_fleet(const MachinePartition& sides);

  /// Heals the fleet: every group back to one full component.
  void merge_fleet();

  void crash_machine(std::uint32_t machine);
  void recover_machine(std::uint32_t machine);

  /// Runs until no events remain (Cluster::settle, which throws if the
  /// event budget trips), then samples the telemetry time series.
  void settle(std::size_t max_events = sim::EventQueue::kDefaultMaxEvents);

  // -- queries -----------------------------------------------------------------

  [[nodiscard]] ProtocolNode& protocol(std::uint32_t group,
                                       std::uint32_t index) {
    return cluster_->protocol(replica_id(group, index));
  }

  /// Distinct formed sessions summed over all groups.
  [[nodiscard]] std::uint64_t total_formed_sessions() const;

  /// Groups that currently have at least one member with Is_Primary.
  [[nodiscard]] std::uint32_t groups_with_live_primary();

  /// Consistency violations across all groups, each prefixed with its
  /// group id. Empty for the consistent protocols, always.
  [[nodiscard]] std::vector<Violation> check_all_groups() const;

  /// One closed reconfiguration window: its group, the fault that opened
  /// it and the formation that closed it (virtual ticks).
  struct ReconfigSample {
    std::uint32_t group = 0;
    SimTime fault_time = 0;
    SimTime formed_time = 0;
    [[nodiscard]] SimTime latency() const noexcept {
      return formed_time - fault_time;
    }
    friend bool operator==(const ReconfigSample&,
                           const ReconfigSample&) = default;
  };

  /// Every closed reconfiguration window, in the order the formations
  /// closed them, with or without telemetry. Deterministic for a fixed
  /// seed.
  [[nodiscard]] const std::vector<ReconfigSample>& reconfig_samples()
      const noexcept {
    return reconfig_samples_;
  }

  // -- telemetry ---------------------------------------------------------------

  /// The per-group metrics hub. Requires options.telemetry.enabled.
  [[nodiscard]] obs::MetricsHub& hub();
  [[nodiscard]] const obs::MetricsHub& hub() const;
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const;

  /// Runs every group's consistency check; each violating group dumps
  /// its flight-recorder ring as a post-mortem (reason = the first
  /// violation), subject to the kMaxPostmortems cap. Returns how many
  /// post-mortems were recorded. Requires telemetry.
  std::size_t check_and_record_postmortems();

  /// Post-mortems recorded so far (latency outliers and violations).
  [[nodiscard]] const std::vector<JsonValue>& postmortems() const noexcept {
    return postmortems_;
  }

  /// The full fleet-telemetry document: shape, deterministic rollup,
  /// per-group registries, top-k slowest reconfigurations, time series,
  /// post-mortems. Byte-identical across runs of the same seed and at
  /// any DYNVOTE_THREADS. Requires telemetry.
  [[nodiscard]] JsonValue telemetry_json() const;

 private:
  struct Group {
    /// Cached hub-child instruments (telemetry mode only): formation
    /// closes a window on the protocol hot path.
    obs::Histogram* reconfig_hist = nullptr;
    obs::Counter* reconfigs = nullptr;
    /// Component layout last applied for this group (what the next
    /// fault is diffed against to detect a reconfiguration).
    std::vector<ProcessSet> last_components;
    std::optional<SimTime> reconfig_pending_since;
  };

  /// The first formation after a fleet fault closes the group's open
  /// window.
  void note(const obs::TraceEvent& event) override;

  /// Applies per-group component lists in ONE network call (so one
  /// topology change covers the whole correlated fault) and opens a
  /// reconfiguration window for every group whose layout changed.
  void apply_components(std::vector<std::vector<ProcessSet>> per_group);
  void mark_groups_on_machine_pending(std::uint32_t machine);

  ShardedFleetOptions options_;
  /// Telemetry mode: group g's protocol events and WAL counters land in
  /// hub child g. Declared before cluster_, whose groups report there.
  std::unique_ptr<obs::MetricsHub> hub_;
  /// Declared before cluster_, whose trace sink it listens on.
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::vector<Group> groups_;
  std::vector<std::vector<ProcessId>> machine_replicas_;
  std::vector<ReconfigSample> reconfig_samples_;
  std::vector<JsonValue> postmortems_;
};

}  // namespace dynvote::shard
