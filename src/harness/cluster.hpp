// Cluster: one simulated system running one protocol variant.
//
// The composition root of every simulated run: the simulator, the
// membership oracle, one protocol node per process, and a list of
// consistency groups. A group is a core with its own DvConfig,
// ConsistencyChecker and MetricsObserver; the paper's guarantee (C1,
// Theorem 1) holds per group. The cluster is the first listener on the
// simulator's trace sink and hands each protocol event to its actor's
// group. Cluster(options) builds group 0, which is the whole system for
// scenario tests, property tests, examples and benches; add_group adds
// another over the same simulator, which is how shard::ShardedFleet runs
// many groups at once.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dv/service.hpp"
#include "harness/checker.hpp"
#include "harness/events.hpp"
#include "harness/scenario.hpp"
#include "membership/membership_oracle.hpp"
#include "sim/simulator.hpp"
#include "util/ensure.hpp"

namespace dynvote {

struct ClusterOptions {
  ProtocolKind kind = ProtocolKind::kOptimized;
  /// Number of core processes (ids 0..n-1). Ignored if config.core set.
  std::uint32_t n = 5;
  DvConfig config;
  sim::SimulatorOptions sim;

  /// Probability, per topology change and per component, that one random
  /// member "detaches before receiving the last message" of the ensuing
  /// session (paper section 1's failure mode): its copy of the closing
  /// round is lost, the session stays ambiguous at it. This is the
  /// paper-faithful way to make failures hit quorum formation itself.
  /// Installs the network's drop filter — mutually exclusive with using
  /// a FaultInjector on the same cluster.
  double formation_miss = 0.0;

  /// Record per-message events (send/drop/deliver) in the structured
  /// trace. Off by default: availability sweeps exchange millions of
  /// messages. Protocol and topology events are always recorded.
  bool trace_messages = false;
};

class Cluster : private obs::TraceListener {
 public:
  explicit Cluster(ClusterOptions options);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] MembershipOracle& oracle() noexcept { return *oracle_; }
  /// Group 0's checker: the only one of a one-group cluster.
  [[nodiscard]] ConsistencyChecker& checker() noexcept {
    return *groups_[0].checker;
  }
  [[nodiscard]] const ConsistencyChecker& checker(std::uint32_t group) const {
    return *at(group).checker;
  }
  /// Group 0's metrics observer: rejected, blocked and rounds per
  /// formation. A group's instruments live in its registry, which
  /// groups added without their own registry share.
  [[nodiscard]] const MetricsObserver& observer() const noexcept {
    return *groups_[0].metrics;
  }
  [[nodiscard]] const MetricsObserver& observer(std::uint32_t group) const {
    return *at(group).metrics;
  }
  /// The structured trace, sim().trace(); obs::describe renders an
  /// event as one narrative line.
  [[nodiscard]] obs::TraceSink& trace() noexcept { return sim_.trace(); }
  /// Group 0's configuration and core.
  [[nodiscard]] const DvConfig& config() const noexcept {
    return groups_[0].config;
  }
  [[nodiscard]] const DvConfig& config(std::uint32_t group) const {
    return at(group).config;
  }
  [[nodiscard]] const ProcessSet& core() const noexcept {
    return config().core;
  }

  // -- consistency groups ------------------------------------------------------

  /// Adds a consistency group: one node per member of config.core (which
  /// must be non-empty and new to the cluster), whose events reach the
  /// group's own checker and metrics observer. Returns the group's index.
  /// Call before the first topology change.
  std::uint32_t add_group(DvConfig config);

  [[nodiscard]] std::uint32_t num_groups() const noexcept {
    return static_cast<std::uint32_t>(groups_.size());
  }
  /// The group `p` belongs to; a process added by add_process joins
  /// group 0.
  [[nodiscard]] std::uint32_t group_of(ProcessId p) const;

  /// Run description for exporting the structured trace
  /// (sim().trace()) via trace_to_json. ambiguity_bound is the Theorem-1
  /// limit n − Min_Quorum + 1 per group, for the protocols that enforce
  /// it (the optimized protocol with a static participant set), 0
  /// otherwise. A cluster of several groups records num_groups, group 0's
  /// size as group_size and the union of the cores, which is the dense
  /// group-major shape dvtrace --group reads.
  [[nodiscard]] obs::TraceMeta trace_meta() const;

  [[nodiscard]] ProtocolNode& protocol(ProcessId p);
  [[nodiscard]] PrimaryComponentService service(ProcessId p) {
    return PrimaryComponentService(protocol(p));
  }

  /// Adds a non-core process to group 0 on the fly (paper section 6:
  /// joins). The new process starts in its own component; merge it to
  /// connect.
  void add_process(ProcessId p) { add_node(p, 0); }

  /// Connects all live processes and settles: the usual way to start.
  void start() {
    sim_.merge_all();
    settle();
  }

  // -- fault injection (thin wrappers that keep call sites readable) -----
  void partition(const std::vector<ProcessSet>& groups) {
    sim_.set_components(groups);
  }
  void merge() { sim_.merge_all(); }
  void crash(ProcessId p) { sim_.crash(p); }
  void recover(ProcessId p) { sim_.recover(p); }

  /// Runs until no events remain (all sessions settled). Throws
  /// InvariantViolation if the event budget trips with work still
  /// pending: a runaway schedule must fail loudly, not produce a
  /// silently truncated bench row.
  void settle(std::size_t max_events = sim::EventQueue::kDefaultMaxEvents) {
    sim_.run_to_quiescence(max_events);
    ensure(sim_.queue().empty(),
           "settle: event budget exhausted with events still pending "
           "(runaway schedule)");
  }

  // -- queries -----------------------------------------------------------------

  /// Each primary session some live process is in, with its live
  /// members. More than one session per group is a split brain.
  [[nodiscard]] std::map<Session, ProcessSet> live_primaries();

  /// Live processes whose Is_Primary is currently true.
  [[nodiscard]] ProcessSet primary_members();

  /// The session of the unique live primary component, if exactly one
  /// distinct session is live; nullopt when none. Multiple distinct live
  /// sessions (split brain) also return nullopt — use checker() to
  /// detect that case explicitly.
  [[nodiscard]] std::optional<Session> live_primary();

  /// All process ids ever added.
  [[nodiscard]] const std::vector<ProcessId>& all_processes() const noexcept {
    return process_ids_;
  }

 private:
  struct Group {
    DvConfig config;
    std::unique_ptr<ConsistencyChecker> checker;
    std::unique_ptr<MetricsObserver> metrics;
  };

  static constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};

  [[nodiscard]] const Group& at(std::uint32_t group) const {
    ensure(group < groups_.size(), "group out of range");
    return groups_[group];
  }
  /// Sends view installs, attempts, formations, aborts, primary losses
  /// and ambiguous-record levels to the actor's group.
  void note(const obs::TraceEvent& event) override;
  void add_node(ProcessId p, std::uint32_t group);
  void on_topology_for_misses();

  ClusterOptions options_;
  sim::Simulator sim_;
  std::vector<Group> groups_;
  /// group_of_[p.value()]; kNoGroup for an id never added.
  std::vector<std::uint32_t> group_of_;
  std::unique_ptr<MembershipOracle> oracle_;
  std::unique_ptr<Rng> miss_rng_;
  std::unique_ptr<FaultInjector> misses_;
  std::vector<ProcessId> process_ids_;
};

}  // namespace dynvote
