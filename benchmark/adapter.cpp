#include "adapter.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <set>

#include "app/replicated_kv.hpp"
#include "harness/cluster.hpp"
#include "obs/runtime_probe.hpp"
#include "runtime/fleet.hpp"

namespace dvbench {

using namespace dynvote;

const char* verb_name(Verb::Kind kind) noexcept {
  switch (kind) {
    case Verb::Kind::kPartition:
      return "partition";
    case Verb::Kind::kMerge:
      return "merge";
    case Verb::Kind::kCrash:
      return "crash";
    case Verb::Kind::kRecover:
      return "recover";
  }
  return "?";
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

Transcript::Transcript(std::uint32_t n) : hash_(n) {
  for (std::uint32_t p = 0; p < n; ++p) {
    hash_[p] = fnv1a(to_string(ProcessId(p)) + ":");
  }
}

void Transcript::feed(std::uint32_t p, std::string_view text) {
  hash_.at(p) = fnv1a(text, hash_[p]);
}

std::uint64_t Transcript::digest() const {
  std::uint64_t out = 14695981039346656037ULL;
  for (const std::uint64_t h : hash_) {
    out = fnv1a(std::string_view(reinterpret_cast<const char*>(&h), sizeof h),
                out);
  }
  return out;
}

namespace {

/// The V/F text of one protocol event, or empty for other kinds.
std::string transcript_text(const obs::TraceEvent& event) {
  switch (event.kind) {
    case obs::TraceEventKind::kViewInstalled:
      return " V" + std::to_string(event.number) + "=" +
             to_string(event.members);
    case obs::TraceEventKind::kSessionFormed:
      return " F" + std::to_string(event.number) + "r" +
             std::to_string(event.value) + "=" + to_string(event.members);
    default:
      return {};
  }
}

std::string final_text(const ProtocolNode& node) {
  return " | primary=" + to_string(node.primary_session()) +
         " formed=" + std::to_string(node.formed_count()) + "\n";
}

std::vector<ProcessSet> to_sets(const Verb& verb) {
  std::vector<ProcessSet> sets;
  sets.reserve(verb.groups.size());
  for (const auto& group : verb.groups) {
    ProcessSet set;
    for (const std::uint32_t p : group) set.insert(ProcessId(p));
    sets.push_back(std::move(set));
  }
  return sets;
}

/// Stamps each process's latest view install, attempt and formation
/// with the transport clock. Every slot has one writer — the worker that
/// owns the process — and the controller reads after a quiesce.
class Stamper final : public ProtocolObserver {
 public:
  Stamper(std::uint32_t n, const runtime::RuntimeTransport& clock)
      : slots_(std::make_unique<Slot[]>(n)), clock_(clock) {}

  void on_view_installed(SimTime, ProcessId p, const View&) override {
    Slot& s = slots_[p.value()];
    s.view_ns.store(clock_.now_ns(), std::memory_order_relaxed);
    bump(s.views);
  }
  void on_attempt(SimTime, ProcessId p, const Session&) override {
    slots_[p.value()].attempt_ns.store(clock_.now_ns(),
                                       std::memory_order_relaxed);
  }
  void on_formed(SimTime, ProcessId p, const Session& session, int) override {
    Slot& s = slots_[p.value()];
    s.formed_ns.store(clock_.now_ns(), std::memory_order_relaxed);
    s.primary.store(session.number, std::memory_order_relaxed);
    bump(s.formed);
  }
  void on_primary_lost(SimTime, ProcessId p) override {
    slots_[p.value()].primary.store(-1, std::memory_order_relaxed);
  }
  void on_session_rejected(SimTime, ProcessId p, const View&,
                           const std::string&) override {
    bump(slots_[p.value()].rejected);
  }

  [[nodiscard]] Stamp read(std::uint32_t p) const {
    const Slot& s = slots_[p];
    Stamp out;
    out.view_ns = s.view_ns.load(std::memory_order_relaxed);
    out.attempt_ns = s.attempt_ns.load(std::memory_order_relaxed);
    out.formed_ns = s.formed_ns.load(std::memory_order_relaxed);
    out.primary = s.primary.load(std::memory_order_relaxed);
    out.views = s.views.load(std::memory_order_relaxed);
    out.formed = s.formed.load(std::memory_order_relaxed);
    out.rejected = s.rejected.load(std::memory_order_relaxed);
    return out;
  }

 private:
  // One cache line per process: neighbouring ids live on different
  // workers, which would otherwise share lines on every stamp.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> view_ns{0};
    std::atomic<std::uint64_t> attempt_ns{0};
    std::atomic<std::uint64_t> formed_ns{0};
    std::atomic<std::int64_t> primary{-1};
    std::atomic<std::uint64_t> views{0};
    std::atomic<std::uint64_t> formed{0};
    std::atomic<std::uint64_t> rejected{0};
  };

  static void bump(std::atomic<std::uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  std::unique_ptr<Slot[]> slots_;
  const runtime::RuntimeTransport& clock_;
};

runtime::FleetOptions pool_options(std::uint32_t n, std::uint32_t workers,
                                   std::size_t probe_capacity) {
  runtime::FleetOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = n;
  // Production persistence, as ShardedFleet runs it: the WAL replay
  // audit re-reads the disk after every persist.
  options.config.persistence.cross_check = false;
  options.backend = runtime::RuntimeBackend::kPool;
  options.workers = workers;
  options.runtime.probes = probe_capacity != 0;
  if (probe_capacity != 0) options.runtime.probe_capacity = probe_capacity;
  return options;
}

void fold_events(const obs::TraceSink& sink, std::string& out) {
  for (const obs::TraceEvent& event : sink.events()) {
    out += transcript_text(event);
  }
}

}  // namespace

// -- PoolFleet ----------------------------------------------------------------

struct PoolFleet::Impl {
  runtime::RuntimeFleet fleet;
  Stamper stamper;
  std::uint32_t n;
  std::vector<obs::ThreadProbeLog> last_logs;
  std::vector<std::uint64_t> recorded;  // per worker lane, at last snapshot
  std::vector<obs::ReconfigWindow> windows;

  Impl(std::uint32_t n_, std::uint32_t workers, std::size_t probe_capacity)
      : fleet(pool_options(n_, workers, probe_capacity)),
        stamper(n_, fleet.transport()),
        n(n_) {
    for (std::uint32_t p = 0; p < n; ++p) {
      fleet.protocol(ProcessId(p)).set_observer(&stamper);
    }
  }
};

PoolFleet::PoolFleet(std::uint32_t n, std::uint32_t workers,
                     std::size_t probe_capacity)
    : impl_(std::make_unique<Impl>(n, workers, probe_capacity)) {}

PoolFleet::~PoolFleet() = default;

std::uint32_t PoolFleet::workers() const {
  return static_cast<std::uint32_t>(impl_->fleet.transport().lanes());
}

void PoolFleet::start() { impl_->fleet.start(); }

std::uint64_t PoolFleet::apply(const Verb& verb) {
  runtime::RuntimeFleet& fleet = impl_->fleet;
  switch (verb.kind) {
    case Verb::Kind::kPartition: {
      const std::vector<ProcessSet> sets = to_sets(verb);
      const std::uint64_t t0 = now_ns();
      fleet.partition(sets);
      return t0;
    }
    case Verb::Kind::kMerge: {
      const std::uint64_t t0 = now_ns();
      fleet.merge();
      return t0;
    }
    case Verb::Kind::kCrash: {
      const std::uint64_t t0 = now_ns();
      fleet.crash(ProcessId(verb.process));
      return t0;
    }
    case Verb::Kind::kRecover: {
      const std::uint64_t t0 = now_ns();
      fleet.recover(ProcessId(verb.process));
      return t0;
    }
  }
  return 0;
}

std::uint64_t PoolFleet::now_ns() const {
  return impl_->fleet.transport().now_ns();
}

Stamp PoolFleet::stamp(std::uint32_t p) const {
  return impl_->stamper.read(p);
}

void PoolFleet::fold(Transcript& transcript) {
  runtime::RuntimeTransport& transport = impl_->fleet.transport();
  const std::vector<ProcessId>& ids = transport.processes();
  std::vector<std::string> text(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    transport.run_on(ids[i], [&transport, p = ids[i], out = &text[i]] {
      obs::TraceSink& sink = transport.trace(p);
      fold_events(sink, *out);
      sink.clear();
    });
  }
  transport.quiesce();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    transcript.feed(ids[i].value(), text[i]);
  }
}

void PoolFleet::finish(Transcript& transcript) {
  runtime::RuntimeFleet& fleet = impl_->fleet;
  fleet.stop();
  for (const ProcessId p : fleet.processes()) {
    std::string text;
    fold_events(fleet.transport().trace(p), text);
    text += final_text(fleet.protocol(p));
    transcript.feed(p.value(), text);
  }
}

Counters PoolFleet::counters() {
  runtime::RuntimeTransport& transport = impl_->fleet.transport();
  const std::vector<ProcessId>& ids = transport.processes();
  std::vector<Counters> per(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    transport.run_on(ids[i], [&transport, p = ids[i], out = &per[i]] {
      const obs::MetricsRegistry& m = transport.metrics(p);
      out->sent = m.counter_value("rt.sent");
      out->delivered = m.counter_value("rt.delivered");
    });
  }
  transport.quiesce();
  Counters total;
  for (const Counters& c : per) {
    total.sent += c.sent;
    total.delivered += c.delivered;
  }
  return total;
}

std::vector<Phases> PoolFleet::attribute(const std::vector<Window>& windows,
                                         ProbeTally& tally) {
  runtime::RuntimeFleet& fleet = impl_->fleet;
  std::vector<obs::ThreadProbeLog> logs = fleet.probe_logs();
  const std::size_t lanes = fleet.transport().lanes();
  impl_->recorded.resize(lanes, 0);
  for (std::size_t lane = 0; lane < lanes && lane < logs.size(); ++lane) {
    const obs::ThreadProbeLog& log = logs[lane];
    const std::uint64_t recorded = log.dropped + log.entries.size();
    const std::uint64_t fresh = recorded - impl_->recorded[lane];
    const std::uint64_t kept =
        std::min<std::uint64_t>(fresh, log.entries.size());
    tally.lost += fresh - kept;
    tally.entries += fresh;
    for (std::size_t i = log.entries.size() - kept; i < log.entries.size();
         ++i) {
      const obs::ProbeEntry& e = log.entries[i];
      switch (e.kind) {
        case obs::ProbeKind::kWakeup:
          tally.wakeup_ns.push_back(e.value);
          break;
        case obs::ProbeKind::kHandlerMessage:
          tally.handler_ns.push_back(e.value);
          break;
        case obs::ProbeKind::kBatch:
          tally.batch.push_back(e.value);
          break;
        case obs::ProbeKind::kParked:
          ++tally.parks;
          break;
        case obs::ProbeKind::kLinkPushFailed:
          ++tally.spills;
          break;
        default:
          break;
      }
    }
    impl_->recorded[lane] = recorded;
  }

  std::vector<Phases> out;
  out.reserve(windows.size());
  for (const Window& w : windows) {
    obs::ReconfigWindow window;
    window.verb = verb_name(w.kind);
    window.t0_ns = w.t0_ns;
    window.t1_ns = w.t1_ns;
    window.critical_thread = fleet.transport().lane_of(ProcessId(w.critical));
    window.phases = obs::attribute_window(
        logs.at(window.critical_thread).entries, w.t0_ns, w.t1_ns);
    const obs::PhaseBreakdown& b = window.phases;
    out.push_back(Phases{b.wall_ns, b.queued_ns, b.parked_ns, b.executing_ns,
                         b.timer_slop_ns, b.unattributed_ns});
    impl_->windows.push_back(std::move(window));
  }
  impl_->last_logs = std::move(logs);
  return out;
}

bool PoolFleet::write_probe_document(const std::string& path) {
  obs::RuntimeProbeMeta meta;
  meta.protocol = to_string(ProtocolKind::kOptimized);
  meta.n = impl_->n;
  meta.wheel_tick_us = runtime::RuntimeOptions{}.wheel_tick_us;
  meta.workers = workers();
  std::ofstream out(path);
  out << obs::runtime_probes_json(meta, impl_->last_logs, impl_->windows)
             .dump()
      << "\n";
  return static_cast<bool>(out);
}

// -- DesCluster ---------------------------------------------------------------

struct DesCluster::Impl {
  Cluster cluster;
  std::unique_ptr<app::KvStore> kv;

  static ClusterOptions options(std::uint32_t n, std::uint64_t seed,
                                bool wal_audit) {
    ClusterOptions options;
    options.kind = ProtocolKind::kOptimized;
    options.n = n;
    options.sim.seed = seed;  // message delays: LatencyModel defaults
    options.config.persistence.cross_check = wal_audit;
    return options;
  }

  Impl(std::uint32_t n, std::uint64_t seed, bool wal_audit, bool with_kv)
      : cluster(options(n, seed, wal_audit)) {
    if (with_kv) kv = std::make_unique<app::KvStore>(cluster);
  }
};

DesCluster::DesCluster(std::uint32_t n, std::uint64_t seed, bool wal_audit,
                       bool kv)
    : impl_(std::make_unique<Impl>(n, seed, wal_audit, kv)) {}

DesCluster::~DesCluster() = default;

void DesCluster::start() { impl_->cluster.start(); }

void DesCluster::apply(const Verb& verb) {
  Cluster& cluster = impl_->cluster;
  switch (verb.kind) {
    case Verb::Kind::kPartition:
      cluster.partition(to_sets(verb));
      return;
    case Verb::Kind::kMerge:
      cluster.merge();
      return;
    case Verb::Kind::kCrash:
      cluster.crash(ProcessId(verb.process));
      return;
    case Verb::Kind::kRecover:
      cluster.recover(ProcessId(verb.process));
      return;
  }
}

bool DesCluster::idle() const { return impl_->cluster.sim().queue().empty(); }

void DesCluster::advance(std::uint64_t ticks) {
  impl_->cluster.sim().advance(ticks);
}

void DesCluster::settle() { impl_->cluster.settle(); }

std::uint64_t DesCluster::now() const { return impl_->cluster.sim().now(); }

std::int64_t DesCluster::write(std::uint32_t p, const std::string& key,
                               std::string value) {
  const std::optional<app::Version> version =
      impl_->kv->write(ProcessId(p), key, std::move(value));
  return version ? version->primary_number : -1;
}

void DesCluster::sync_primary() { impl_->kv->sync_primary(); }

std::size_t DesCluster::kv_audit() const { return impl_->kv->audit().size(); }

std::size_t DesCluster::distinct_primaries() {
  Cluster& cluster = impl_->cluster;
  std::set<Session> sessions;
  for (const ProcessId p : cluster.all_processes()) {
    if (!cluster.sim().network().alive(p)) continue;
    const ProtocolNode& node = cluster.protocol(p);
    if (node.primary_session()) sessions.insert(*node.primary_session());
  }
  return sessions.size();
}

std::size_t DesCluster::checker_violations() const {
  return impl_->cluster.checker().check_basic().size();
}

DesCluster::Formation DesCluster::fold(Transcript& transcript) {
  Cluster& cluster = impl_->cluster;
  Formation out;
  obs::TraceSink& sink = cluster.sim().trace();
  for (const obs::TraceEvent& event : sink.events()) {
    const std::string text = transcript_text(event);
    if (text.empty()) continue;
    transcript.feed(event.a.value(), text);
    if (event.kind == obs::TraceEventKind::kSessionFormed) {
      out.formed.push_back(event.a.value());
      out.session = event.number;
      out.last_formed = std::max<std::uint64_t>(out.last_formed, event.time);
    }
  }
  std::sort(out.formed.begin(), out.formed.end());
  sink.clear();
  cluster.trace().clear();
  return out;
}

void DesCluster::finish(Transcript& transcript) {
  Cluster& cluster = impl_->cluster;
  (void)fold(transcript);
  for (const ProcessId p : cluster.all_processes()) {
    transcript.feed(p.value(), final_text(cluster.protocol(p)));
  }
}

Counters DesCluster::counters() const {
  sim::Simulator& sim = impl_->cluster.sim();
  const obs::MetricsRegistry& m = sim.metrics();
  Counters out;
  out.sent = m.counter_value("net.messages_sent");
  out.delivered = m.counter_value("net.messages_delivered");
  out.bytes = m.counter_value("net.bytes_sent");
  out.events = sim.queue().executed();
  out.persists = m.counter_value("dv.storage.persists");
  out.wal_bytes = m.counter_value("dv.storage.wal_bytes");
  out.checkpoints = m.counter_value("dv.storage.checkpoints");
  return out;
}

}  // namespace dvbench
