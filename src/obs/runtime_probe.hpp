// Wall-clock probe rings for the runtime backend.
//
// The DES observability spine (TraceSink -> MetricsHub -> FlightRecorder)
// speaks simulated time; the runtime backend (runtime/pool_transport.hpp)
// runs on real worker threads, where the interesting questions are
// wall-clock ones: how long did a message sit in its SPSC link, how long
// was a worker parked, how late did a timer fire, where did a
// reconfiguration's microseconds actually go. ProbeRing answers them
// without perturbing the system under test:
//
//  * one ring per lane — each pool worker, plus the controller — written
//    only by its owning thread: lock-free by construction, no atomics
//    on the record path;
//  * zero allocation after construction: fixed-size POD entries in a
//    preallocated ring, overwritten in place oldest-first (the
//    FlightRecorder discipline, flattened to PODs);
//  * nanosecond timestamps on a shared epoch (the transport's start), so
//    entries from different threads merge into one timeline;
//  * every entry is stamped {thread (implicit: the ring), link, eid} —
//    eid is the recording process's latest protocol-trace event id, the
//    join key back into the causal trace.
//
// Reading a ring is the cold path and is only safe from the owning
// thread (run_on + quiesce) or after the transport has joined; the
// runtime exposes snapshots through RuntimeFleet::probe_logs().
//
// On top of the raw rings this header provides the offline analyses:
// per-thread metric aggregation into a MetricsHub (one child per lane,
// so rollup() and the JSON export work unchanged), the reconfiguration
// phase breakdown (queued / parked / executing / timer-slop attribution
// of a wall-clock window), and the schema-versioned JSON document that
// `dvtrace runtime` renders and exports as a Chrome trace.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/hub.hpp"
#include "util/json.hpp"

namespace dynvote::obs {

/// Version stamped into runtime_probes_json(); bump on any incompatible
/// change to the probe-document shape. v2: pool-scheduler kinds
/// (batch / run_queue / handoff), `workers` in the meta. v3: one lane
/// layout — lanes are always workers (`workers` >= 1), handler entries
/// stamp the handling process in `link`, and the per-process `push`
/// kind is gone (a cross-worker push records `handoff`).
inline constexpr int kRuntimeProbeSchemaVersion = 3;

/// `link` value for "the controller lane" (pushes from / pops of the
/// control queue) and for entries with no peer at all (parks, timers).
inline constexpr std::uint16_t kControllerLane = 0xFFFF;
inline constexpr std::uint16_t kNoLane = 0xFFFE;

/// Display name of a probe lane: "w<i>" for worker i, "ctl" for the
/// controller.
[[nodiscard]] std::string lane_name(std::uint32_t thread);

enum class ProbeKind : std::uint8_t {
  kLinkPushFailed,  // a push onto a full link; the pool's links and
                    // control queues are unbounded, so nothing records
                    // it (kept for the document schema and its readers)
  kLinkPop,         // data-link pop; value = queue wait ns (pop - send)
  kControlPush,     // control-queue push (controller lane); value = depth
  kControlPop,      // control-queue pop; value = queue wait ns
  kParked,          // t = park start, value = parked ns (for timer-bounded
                    // naps: only the portion before the deadline)
  kTimerSlop,       // t = deadline, value = ns spent asleep past it
  kWakeup,          // t = wake, value = ns from the last notify to running
  kTimerSchedule,   // value = requested delay ns
  kTimerFire,       // value = fire slop ns (fire time - deadline)
  kHandlerMessage,  // t = begin, value = handler duration ns
  kHandlerControl,  // t = begin, value = handler duration ns
  kHandlerTimer,    // t = begin, value = duration of a firing advance()
  // Pool-scheduler kinds (per-worker lanes; schema v2):
  kBatch,           // one batched inbox drain; value = batch size,
                    // link = source lane (sender / source worker)
  kRunQueue,        // local run-queue sample; value = depth after a
                    // same-worker fast-path enqueue
  kHandoff,         // cross-worker push; value = link depth after push,
                    // link = destination worker
};

[[nodiscard]] std::string_view to_string(ProbeKind kind);
/// Inverse of to_string; throws InvariantViolation on an unknown name.
[[nodiscard]] ProbeKind probe_kind_from_string(std::string_view name);

/// 32-byte POD ring slot. Interval-shaped kinds stamp `t_ns` with the
/// interval START and `value` with its duration, so entries appear in
/// the ring ordered by completion but reconstruct exact intervals.
/// Deliberately no member initializers: ProbeRing allocates its slots
/// uninitialized (a 2MB default ring would otherwise cost milliseconds
/// of zeroing per thread at fleet construction, dwarfing the probes'
/// own runtime cost). Value-initialize (`ProbeEntry{}`) when a zeroed
/// entry is needed.
struct ProbeEntry {
  std::uint64_t t_ns;   // ns since transport start
  std::uint64_t value;  // kind-specific payload (see ProbeKind)
  std::uint64_t eid;    // recorder's latest trace eid (0 = none yet)
  std::uint16_t link;   // peer lane: push = destination, pop = source
  ProbeKind kind;

  friend bool operator==(const ProbeEntry&, const ProbeEntry&) = default;
};

/// Single-writer overwrite-in-place ring of ProbeEntry. All methods are
/// owner-thread only (snapshot additionally allowed after the owning
/// thread joined); the ring itself never synchronizes.
class ProbeRing {
 public:
  /// Capacity is rounded up to a power of two, minimum 16.
  explicit ProbeRing(std::size_t min_capacity);

  void record(ProbeKind kind, std::uint64_t t_ns, std::uint64_t value,
              std::uint16_t link, std::uint64_t eid) noexcept {
    ProbeEntry& slot = slots_[next_ & mask_];
    slot.t_ns = t_ns;
    slot.value = value;
    slot.eid = eid;
    slot.link = link;
    slot.kind = kind;
    ++next_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }
  /// Total entries ever recorded (retained + evicted).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return next_; }
  /// Entries overwritten by newer ones.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return next_ > capacity() ? next_ - capacity() : 0;
  }

  /// Retained entries, oldest first.
  [[nodiscard]] std::vector<ProbeEntry> snapshot() const;

 private:
  /// Uninitialized storage on purpose: record() writes every field of a
  /// slot before ++next_, and snapshot() never reads past next_, so no
  /// uninitialized byte is ever observed — and construction costs one
  /// mapping, not a multi-megabyte memset per thread.
  std::unique_ptr<ProbeEntry[]> slots_;
  std::uint64_t mask_ = 0;
  std::uint64_t next_ = 0;
};

/// One lane's snapshot: a worker (thread = its index) or the controller
/// (thread = kControllerLane).
struct ThreadProbeLog {
  std::uint32_t thread = 0;
  std::uint64_t dropped = 0;
  std::vector<ProbeEntry> entries;  // oldest first
};

/// Where a wall-clock window's nanoseconds went, as seen by ONE thread
/// (phase definitions in docs/OBSERVABILITY.md). Each nanosecond of the
/// window gets exactly one label, by precedence:
///
///   executing > timer_slop > queued > parked > unattributed
///
///  * executing: inside a message/control/timer handler;
///  * timer_slop: asleep past a due timer deadline;
///  * queued: work addressed to this thread was in flight (pushed but
///    not yet popped) while the thread was not executing — covers both
///    ring residence and the tail of a park spent waiting to wake;
///  * parked: idle with nothing pending for this thread;
///  * unattributed: awake outside handlers with nothing measurably
///    queued — loop scan/dispatch overhead. The acceptance gate bounds
///    this residue (< 10% of wall), which is what makes the breakdown
///    falsifiable rather than true by construction.
struct PhaseBreakdown {
  std::uint64_t wall_ns = 0;
  std::uint64_t queued_ns = 0;
  std::uint64_t parked_ns = 0;
  std::uint64_t executing_ns = 0;
  std::uint64_t timer_slop_ns = 0;
  std::uint64_t unattributed_ns = 0;

  friend bool operator==(const PhaseBreakdown&, const PhaseBreakdown&) =
      default;
};

/// Attributes [t0_ns, t1_ns) of the recording thread's time from its
/// probe entries (any order; intervals are clipped to the window).
[[nodiscard]] PhaseBreakdown attribute_window(
    const std::vector<ProbeEntry>& entries, std::uint64_t t0_ns,
    std::uint64_t t1_ns);

/// One reconfiguration as measured by the bench: the window from the
/// topology verb to the last member's formation, attributed on the
/// critical (last-forming) thread.
struct ReconfigWindow {
  std::string verb;  // "partition" | "merge" | ...
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint32_t critical_thread = 0;
  PhaseBreakdown phases;
};

/// Folds raw rings into per-lane metrics. The hub must have exactly
/// logs.size() groups; child i holds lane i's instruments (counters
/// rt.probe.*, histograms rt.probe.*_ns / rt.probe.queue_depth), so the
/// hub's deterministic rollup() and to_json() work unchanged.
void aggregate_probe_metrics(const std::vector<ThreadProbeLog>& logs,
                             MetricsHub& hub);

/// Shape of the run the probes came from (stamped into the document).
struct RuntimeProbeMeta {
  std::string protocol;
  std::uint32_t n = 0;
  std::uint64_t wheel_tick_us = 0;
  /// Pool workers, one lane each (>= 1; the loader rejects 0). Handler
  /// entries carry the handling process's index in `link`.
  std::uint32_t workers = 1;
};

/// The schema-versioned document `dvtrace runtime` consumes:
/// {schema_version, experiment:"runtime_probes", protocol, n,
///  wheel_tick_us, threads:[{thread,dropped,events:[...]}],
///  reconfigs:[{verb,t0_ns,...,phase buckets}], metrics: hub JSON}.
[[nodiscard]] JsonValue runtime_probes_json(
    const RuntimeProbeMeta& meta, const std::vector<ThreadProbeLog>& logs,
    const std::vector<ReconfigWindow>& reconfigs);

/// Parsed form of runtime_probes_json (metrics kept as raw JSON — the
/// consumers only re-render it). Throws JsonError on malformed input and
/// InvariantViolation on a schema-version mismatch or a `workers` field
/// that is missing or 0.
struct RuntimeProbeDoc {
  RuntimeProbeMeta meta;
  std::vector<ThreadProbeLog> threads;
  std::vector<ReconfigWindow> reconfigs;
  JsonValue metrics;
};

[[nodiscard]] RuntimeProbeDoc load_runtime_probes(const std::string& text);

/// Chrome trace-event JSON of a probe document: one tid per lane
/// (thread_name metadata), "X" slices for parks / slop and for handlers
/// (each named for its handling process), instants for backpressure
/// episodes, handoffs and timer fires, and one async
/// "b"/"e" span per reconfiguration window. Loads in chrome://tracing
/// and Perfetto; `dvtrace runtime --chrome` validates it with the same
/// checker as export-chrome before writing.
[[nodiscard]] JsonValue runtime_probe_chrome_json(const RuntimeProbeDoc& doc);

}  // namespace dynvote::obs
