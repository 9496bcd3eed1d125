#include "obs/runtime_probe.hpp"

#include <algorithm>
#include <utility>

#include "util/ensure.hpp"

namespace dynvote::obs {

std::string_view to_string(ProbeKind kind) {
  switch (kind) {
    case ProbeKind::kLinkPush:
      return "push";
    case ProbeKind::kLinkPushFailed:
      return "push_failed";
    case ProbeKind::kLinkPop:
      return "pop";
    case ProbeKind::kControlPush:
      return "ctl_push";
    case ProbeKind::kControlPop:
      return "ctl_pop";
    case ProbeKind::kParked:
      return "parked";
    case ProbeKind::kTimerSlop:
      return "sleep_slop";
    case ProbeKind::kWakeup:
      return "wakeup";
    case ProbeKind::kTimerSchedule:
      return "timer_sched";
    case ProbeKind::kTimerFire:
      return "timer_fire";
    case ProbeKind::kHandlerMessage:
      return "h_msg";
    case ProbeKind::kHandlerControl:
      return "h_ctl";
    case ProbeKind::kHandlerTimer:
      return "h_timer";
    case ProbeKind::kBatch:
      return "batch";
    case ProbeKind::kRunQueue:
      return "run_queue";
    case ProbeKind::kHandoff:
      return "handoff";
  }
  return "?";
}

ProbeKind probe_kind_from_string(std::string_view name) {
  for (const ProbeKind kind :
       {ProbeKind::kLinkPush, ProbeKind::kLinkPushFailed, ProbeKind::kLinkPop,
        ProbeKind::kControlPush, ProbeKind::kControlPop, ProbeKind::kParked,
        ProbeKind::kTimerSlop, ProbeKind::kWakeup, ProbeKind::kTimerSchedule,
        ProbeKind::kTimerFire, ProbeKind::kHandlerMessage,
        ProbeKind::kHandlerControl, ProbeKind::kHandlerTimer,
        ProbeKind::kBatch, ProbeKind::kRunQueue, ProbeKind::kHandoff}) {
    if (to_string(kind) == name) return kind;
  }
  invariant_failed("unknown probe kind " + std::string(name));
}

ProbeRing::ProbeRing(std::size_t min_capacity) {
  std::size_t cap = 16;
  while (cap < min_capacity) cap <<= 1;
  slots_ = std::make_unique_for_overwrite<ProbeEntry[]>(cap);
  mask_ = cap - 1;
}

std::vector<ProbeEntry> ProbeRing::snapshot() const {
  std::vector<ProbeEntry> out;
  const std::uint64_t retained = std::min<std::uint64_t>(next_, capacity());
  out.reserve(static_cast<std::size_t>(retained));
  for (std::uint64_t i = next_ - retained; i < next_; ++i) {
    out.push_back(slots_[i & mask_]);
  }
  return out;
}

// -- phase attribution --------------------------------------------------------

namespace {

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Sorts and merges into disjoint intervals (coalescing adjacency), so
/// the sweep below can walk each set with one monotone cursor.
void normalize(std::vector<Interval>& set) {
  std::sort(set.begin(), set.end(), [](const Interval& a, const Interval& b) {
    return a.start < b.start;
  });
  std::size_t out = 0;
  for (const Interval& iv : set) {
    if (out > 0 && iv.start <= set[out - 1].end) {
      set[out - 1].end = std::max(set[out - 1].end, iv.end);
    } else {
      set[out++] = iv;
    }
  }
  set.resize(out);
}

/// Whether `t` lies in `set`, advancing the cursor (queries must come in
/// nondecreasing t, which the sorted cut sweep guarantees).
bool covered(const std::vector<Interval>& set, std::size_t& cursor,
             std::uint64_t t) {
  while (cursor < set.size() && set[cursor].end <= t) ++cursor;
  return cursor < set.size() && set[cursor].start <= t;
}

}  // namespace

PhaseBreakdown attribute_window(const std::vector<ProbeEntry>& entries,
                                std::uint64_t t0_ns, std::uint64_t t1_ns) {
  PhaseBreakdown out;
  if (t1_ns <= t0_ns) return out;
  out.wall_ns = t1_ns - t0_ns;

  std::vector<Interval> exec;
  std::vector<Interval> slop;
  std::vector<Interval> queued;
  std::vector<Interval> parked;
  auto clip_add = [&](std::vector<Interval>& set, std::uint64_t s,
                      std::uint64_t e) {
    s = std::max(s, t0_ns);
    e = std::min(e, t1_ns);
    if (e > s) set.push_back(Interval{s, e});
  };
  for (const ProbeEntry& e : entries) {
    switch (e.kind) {
      case ProbeKind::kHandlerMessage:
      case ProbeKind::kHandlerControl:
      case ProbeKind::kHandlerTimer:
        clip_add(exec, e.t_ns, e.t_ns + e.value);
        break;
      case ProbeKind::kTimerSlop:
        clip_add(slop, e.t_ns, e.t_ns + e.value);
        break;
      case ProbeKind::kParked:
        clip_add(parked, e.t_ns, e.t_ns + e.value);
        break;
      case ProbeKind::kLinkPop:
      case ProbeKind::kControlPop:
        // A pop at t after waiting v means the item was in flight to
        // this thread over [t - v, t].
        if (e.value != 0 && e.value <= e.t_ns) {
          clip_add(queued, e.t_ns - e.value, e.t_ns);
        }
        break;
      default:
        break;
    }
  }
  normalize(exec);
  normalize(slop);
  normalize(queued);
  normalize(parked);

  std::vector<std::uint64_t> cuts;
  cuts.reserve(2 * (exec.size() + slop.size() + queued.size() + parked.size()) +
               2);
  cuts.push_back(t0_ns);
  cuts.push_back(t1_ns);
  for (const auto* set : {&exec, &slop, &queued, &parked}) {
    for (const Interval& iv : *set) {
      cuts.push_back(iv.start);
      cuts.push_back(iv.end);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::size_t ce = 0;
  std::size_t cs = 0;
  std::size_t cq = 0;
  std::size_t cp = 0;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::uint64_t s = cuts[i];
    if (s < t0_ns || s >= t1_ns) continue;
    const std::uint64_t len = cuts[i + 1] - s;
    if (covered(exec, ce, s)) {
      out.executing_ns += len;
    } else if (covered(slop, cs, s)) {
      out.timer_slop_ns += len;
    } else if (covered(queued, cq, s)) {
      out.queued_ns += len;
    } else if (covered(parked, cp, s)) {
      out.parked_ns += len;
    } else {
      out.unattributed_ns += len;
    }
  }
  return out;
}

// -- metric aggregation -------------------------------------------------------

void aggregate_probe_metrics(const std::vector<ThreadProbeLog>& logs,
                             MetricsHub& hub) {
  ensure(hub.num_groups() == logs.size(),
         "probe aggregation needs one hub group per lane");
  for (std::size_t i = 0; i < logs.size(); ++i) {
    MetricsRegistry& r = hub.group(i);
    if (logs[i].dropped != 0) {
      r.counter("rt.probe.dropped").add(logs[i].dropped);
    }
    for (const ProbeEntry& e : logs[i].entries) {
      switch (e.kind) {
        case ProbeKind::kLinkPush:
          r.counter("rt.probe.push").increment();
          r.histogram("rt.probe.queue_depth").observe(e.value);
          break;
        case ProbeKind::kLinkPushFailed:
          r.counter("rt.probe.push_failed").increment();
          r.histogram("rt.probe.backpressure_ns").observe(e.value);
          break;
        case ProbeKind::kLinkPop:
          r.counter("rt.probe.pop").increment();
          r.histogram("rt.probe.queued_ns").observe(e.value);
          break;
        case ProbeKind::kControlPush:
          r.counter("rt.probe.control_push").increment();
          r.histogram("rt.probe.queue_depth").observe(e.value);
          break;
        case ProbeKind::kControlPop:
          r.counter("rt.probe.control_pop").increment();
          r.histogram("rt.probe.queued_ns").observe(e.value);
          break;
        case ProbeKind::kParked:
          r.counter("rt.probe.parks").increment();
          r.histogram("rt.probe.park_ns").observe(e.value);
          break;
        case ProbeKind::kTimerSlop:
          r.histogram("rt.probe.sleep_slop_ns").observe(e.value);
          break;
        case ProbeKind::kWakeup:
          r.counter("rt.probe.wakeups").increment();
          r.histogram("rt.probe.wakeup_ns").observe(e.value);
          break;
        case ProbeKind::kTimerSchedule:
          r.counter("rt.probe.timer_scheduled").increment();
          r.histogram("rt.probe.timer_delay_ns").observe(e.value);
          break;
        case ProbeKind::kTimerFire:
          r.counter("rt.probe.timer_fired").increment();
          r.histogram("rt.probe.timer_slop_ns").observe(e.value);
          break;
        case ProbeKind::kHandlerMessage:
        case ProbeKind::kHandlerControl:
        case ProbeKind::kHandlerTimer:
          r.counter("rt.probe.handlers").increment();
          r.histogram("rt.probe.handler_ns").observe(e.value);
          break;
        case ProbeKind::kBatch:
          r.counter("rt.probe.batches").increment();
          r.histogram("rt.probe.batch_size").observe(e.value);
          break;
        case ProbeKind::kRunQueue:
          r.histogram("rt.probe.run_queue_depth").observe(e.value);
          break;
        case ProbeKind::kHandoff:
          r.counter("rt.probe.handoffs").increment();
          r.histogram("rt.probe.queue_depth").observe(e.value);
          break;
      }
    }
  }
}

// -- JSON document ------------------------------------------------------------

namespace {

JsonValue entry_to_json(const ProbeEntry& e) {
  JsonValue out = JsonValue::object();
  out.reserve(5);
  out.set("t", JsonValue(e.t_ns));
  out.set("k", JsonValue(to_string(e.kind)));
  if (e.link != kNoLane) out.set("l", JsonValue(std::uint64_t{e.link}));
  if (e.value != 0) out.set("v", JsonValue(e.value));
  if (e.eid != 0) out.set("e", JsonValue(e.eid));
  return out;
}

ProbeEntry entry_from_json(const JsonValue& json) {
  ProbeEntry e;
  e.t_ns = json.at("t").as_uint();
  e.kind = probe_kind_from_string(json.at("k").as_string());
  const JsonValue* link = json.find("l");
  e.link = link == nullptr ? kNoLane : static_cast<std::uint16_t>(link->as_uint());
  const JsonValue* value = json.find("v");
  e.value = value == nullptr ? 0 : value->as_uint();
  const JsonValue* eid = json.find("e");
  e.eid = eid == nullptr ? 0 : eid->as_uint();
  return e;
}

JsonValue breakdown_to_json(const ReconfigWindow& w) {
  JsonValue out = JsonValue::object();
  out.reserve(10);
  out.set("verb", JsonValue(w.verb));
  out.set("t0_ns", JsonValue(w.t0_ns));
  out.set("t1_ns", JsonValue(w.t1_ns));
  out.set("wall_ns", JsonValue(w.phases.wall_ns));
  out.set("critical_thread", JsonValue(std::uint64_t{w.critical_thread}));
  out.set("queued_ns", JsonValue(w.phases.queued_ns));
  out.set("parked_ns", JsonValue(w.phases.parked_ns));
  out.set("executing_ns", JsonValue(w.phases.executing_ns));
  out.set("timer_slop_ns", JsonValue(w.phases.timer_slop_ns));
  out.set("unattributed_ns", JsonValue(w.phases.unattributed_ns));
  return out;
}

}  // namespace

JsonValue runtime_probes_json(const RuntimeProbeMeta& meta,
                              const std::vector<ThreadProbeLog>& logs,
                              const std::vector<ReconfigWindow>& reconfigs) {
  JsonValue out = JsonValue::object();
  out.reserve(8);
  out.set("schema_version",
          JsonValue(static_cast<std::int64_t>(kRuntimeProbeSchemaVersion)));
  out.set("experiment", JsonValue("runtime_probes"));
  out.set("protocol", JsonValue(meta.protocol));
  out.set("n", JsonValue(std::uint64_t{meta.n}));
  out.set("wheel_tick_us", JsonValue(meta.wheel_tick_us));
  out.set("workers", JsonValue(std::uint64_t{meta.workers}));

  JsonValue threads = JsonValue::array();
  threads.reserve(logs.size());
  for (const ThreadProbeLog& log : logs) {
    JsonValue lane = JsonValue::object();
    lane.reserve(3);
    lane.set("thread", JsonValue(std::uint64_t{log.thread}));
    lane.set("dropped", JsonValue(log.dropped));
    JsonValue events = JsonValue::array();
    events.reserve(log.entries.size());
    for (const ProbeEntry& e : log.entries) events.push_back(entry_to_json(e));
    lane.set("events", std::move(events));
    threads.push_back(std::move(lane));
  }
  out.set("threads", std::move(threads));

  JsonValue windows = JsonValue::array();
  windows.reserve(reconfigs.size());
  for (const ReconfigWindow& w : reconfigs) {
    windows.push_back(breakdown_to_json(w));
  }
  out.set("reconfigs", std::move(windows));

  MetricsHub hub(logs.size());
  aggregate_probe_metrics(logs, hub);
  out.set("metrics", hub.to_json());
  return out;
}

RuntimeProbeDoc load_runtime_probes(const std::string& text) {
  const JsonValue json = JsonValue::parse(text);
  const std::int64_t version = json.at("schema_version").as_int();
  if (version != kRuntimeProbeSchemaVersion) {
    invariant_failed("runtime probe document schema version mismatch (have " +
                     std::to_string(version) + ", want " +
                     std::to_string(kRuntimeProbeSchemaVersion) + ")");
  }
  RuntimeProbeDoc doc;
  doc.meta.protocol = json.at("protocol").as_string();
  doc.meta.n = static_cast<std::uint32_t>(json.at("n").as_uint());
  doc.meta.wheel_tick_us = json.at("wheel_tick_us").as_uint();
  const JsonValue* workers = json.find("workers");
  doc.meta.workers =
      workers == nullptr ? 0 : static_cast<std::uint32_t>(workers->as_uint());
  for (const JsonValue& lane : json.at("threads").as_array()) {
    ThreadProbeLog log;
    log.thread = static_cast<std::uint32_t>(lane.at("thread").as_uint());
    log.dropped = lane.at("dropped").as_uint();
    for (const JsonValue& e : lane.at("events").as_array()) {
      log.entries.push_back(entry_from_json(e));
    }
    doc.threads.push_back(std::move(log));
  }
  for (const JsonValue& w : json.at("reconfigs").as_array()) {
    ReconfigWindow window;
    window.verb = w.at("verb").as_string();
    window.t0_ns = w.at("t0_ns").as_uint();
    window.t1_ns = w.at("t1_ns").as_uint();
    window.critical_thread =
        static_cast<std::uint32_t>(w.at("critical_thread").as_uint());
    window.phases.wall_ns = w.at("wall_ns").as_uint();
    window.phases.queued_ns = w.at("queued_ns").as_uint();
    window.phases.parked_ns = w.at("parked_ns").as_uint();
    window.phases.executing_ns = w.at("executing_ns").as_uint();
    window.phases.timer_slop_ns = w.at("timer_slop_ns").as_uint();
    window.phases.unattributed_ns = w.at("unattributed_ns").as_uint();
    doc.reconfigs.push_back(std::move(window));
  }
  doc.metrics = json.at("metrics");
  return doc;
}

// -- Chrome export ------------------------------------------------------------

namespace {

std::string lane_name(std::uint32_t thread, std::uint32_t workers) {
  if (thread == kControllerLane) return "ctl";
  return (workers > 0 ? "w" : "p") + std::to_string(thread);
}

JsonValue chrome_slice(const std::string& name, std::uint64_t tid,
                       std::uint64_t t_ns, std::uint64_t dur_ns) {
  JsonValue e = JsonValue::object();
  e.reserve(6);
  e.set("name", JsonValue(name));
  e.set("ph", JsonValue("X"));
  e.set("pid", JsonValue(std::uint64_t{1}));
  e.set("tid", JsonValue(tid));
  e.set("ts", JsonValue(t_ns / 1000));
  e.set("dur", JsonValue(dur_ns / 1000));
  return e;
}

JsonValue chrome_instant(const std::string& name, std::uint64_t tid,
                         std::uint64_t t_ns) {
  JsonValue e = JsonValue::object();
  e.reserve(6);
  e.set("name", JsonValue(name));
  e.set("ph", JsonValue("i"));
  e.set("s", JsonValue("t"));
  e.set("pid", JsonValue(std::uint64_t{1}));
  e.set("tid", JsonValue(tid));
  e.set("ts", JsonValue(t_ns / 1000));
  return e;
}

}  // namespace

JsonValue runtime_probe_chrome_json(const RuntimeProbeDoc& doc) {
  JsonValue events = JsonValue::array();

  JsonValue process_meta = JsonValue::object();
  process_meta.set("name", JsonValue("process_name"));
  process_meta.set("ph", JsonValue("M"));
  process_meta.set("pid", JsonValue(std::uint64_t{1}));
  JsonValue process_args = JsonValue::object();
  std::string run_name =
      "dynvote-runtime " + doc.meta.protocol + " n=" + std::to_string(doc.meta.n);
  if (doc.meta.workers > 0) {
    run_name += " pool W=" + std::to_string(doc.meta.workers);
  }
  process_args.set("name", JsonValue(run_name));
  process_meta.set("args", std::move(process_args));
  events.push_back(std::move(process_meta));

  // Pool runs map one tid per worker; handler entries carry the handling
  // process in `link`, so each slice is named for its process — adjacent
  // slices on a worker lane get per-process colors in the viewer.
  const bool pool = doc.meta.workers > 0;
  auto handler_name = [&](const char* base, const ProbeEntry& e) {
    if (pool && e.link != kNoLane && e.link != kControllerLane) {
      return std::string(base) + " p" + std::to_string(e.link);
    }
    return std::string(base);
  };

  for (const ThreadProbeLog& log : doc.threads) {
    JsonValue thread_meta = JsonValue::object();
    thread_meta.set("name", JsonValue("thread_name"));
    thread_meta.set("ph", JsonValue("M"));
    thread_meta.set("pid", JsonValue(std::uint64_t{1}));
    thread_meta.set("tid", JsonValue(std::uint64_t{log.thread}));
    JsonValue args = JsonValue::object();
    args.set("name", JsonValue(lane_name(log.thread, doc.meta.workers)));
    thread_meta.set("args", std::move(args));
    events.push_back(std::move(thread_meta));

    const std::uint64_t tid = log.thread;
    for (const ProbeEntry& e : log.entries) {
      switch (e.kind) {
        case ProbeKind::kHandlerMessage:
          events.push_back(
              chrome_slice(handler_name("h:msg", e), tid, e.t_ns, e.value));
          break;
        case ProbeKind::kHandlerControl:
          events.push_back(
              chrome_slice(handler_name("h:ctl", e), tid, e.t_ns, e.value));
          break;
        case ProbeKind::kHandlerTimer:
          events.push_back(
              chrome_slice(handler_name("h:timer", e), tid, e.t_ns, e.value));
          break;
        case ProbeKind::kParked:
          events.push_back(chrome_slice("parked", tid, e.t_ns, e.value));
          break;
        case ProbeKind::kTimerSlop:
          events.push_back(chrome_slice("timer-slop", tid, e.t_ns, e.value));
          break;
        case ProbeKind::kLinkPop:
        case ProbeKind::kControlPop:
          // The item's ring residence, drawn on the consuming lane.
          if (e.value != 0 && e.value <= e.t_ns) {
            events.push_back(
                chrome_slice("queued", tid, e.t_ns - e.value, e.value));
          }
          break;
        case ProbeKind::kLinkPushFailed:
          events.push_back(chrome_instant("backpressure", tid, e.t_ns));
          break;
        case ProbeKind::kTimerFire:
          events.push_back(chrome_instant("timer-fire", tid, e.t_ns));
          break;
        case ProbeKind::kHandoff:
          events.push_back(chrome_instant("handoff", tid, e.t_ns));
          break;
        default:
          break;
      }
    }
  }

  for (std::size_t i = 0; i < doc.reconfigs.size(); ++i) {
    const ReconfigWindow& w = doc.reconfigs[i];
    const std::string id = "reconfig-" + std::to_string(i);
    JsonValue begin = JsonValue::object();
    begin.set("name", JsonValue("reconfig:" + w.verb));
    begin.set("cat", JsonValue("reconfig"));
    begin.set("ph", JsonValue("b"));
    begin.set("id", JsonValue(id));
    begin.set("pid", JsonValue(std::uint64_t{1}));
    begin.set("tid", JsonValue(std::uint64_t{w.critical_thread}));
    begin.set("ts", JsonValue(w.t0_ns / 1000));
    events.push_back(std::move(begin));
    JsonValue end = JsonValue::object();
    end.set("name", JsonValue("reconfig:" + w.verb));
    end.set("cat", JsonValue("reconfig"));
    end.set("ph", JsonValue("e"));
    end.set("id", JsonValue(id));
    end.set("pid", JsonValue(std::uint64_t{1}));
    end.set("tid", JsonValue(std::uint64_t{w.critical_thread}));
    end.set("ts", JsonValue(w.t1_ns / 1000));
    events.push_back(std::move(end));
  }

  JsonValue out = JsonValue::object();
  out.set("displayTimeUnit", JsonValue("ns"));
  out.set("traceEvents", std::move(events));
  return out;
}

}  // namespace dynvote::obs
