#include "obs/spans.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace dynvote::obs {

namespace {

/// Per-process fold state while sweeping the event stream.
struct ProcessFold {
  std::size_t open_session = kNone;
  std::size_t open_primary = kNone;
  std::vector<std::size_t> open_ambiguity;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

}  // namespace

SpanReport build_spans(const std::vector<TraceEvent>& events) {
  SpanReport report;
  DerivedMetrics& d = report.derived;
  std::map<ProcessId, ProcessFold> folds;

  // The union of the ambiguity spans: an interval opens when the first
  // record anywhere opens and closes when the last one closes.
  std::size_t ambiguity_open_total = 0;
  SimTime ambiguity_open_at = 0;

  auto close_session = [&](ProcessFold& fold, const TraceEvent& event,
                           std::string outcome) {
    if (fold.open_session == ProcessFold::kNone) return;
    SessionSpan& span = report.sessions[fold.open_session];
    span.end = event.time;
    span.close_eid = event.eid;
    span.outcome = std::move(outcome);
    fold.open_session = ProcessFold::kNone;
  };

  auto close_ambiguity = [&](ProcessFold& fold, std::size_t index,
                             const TraceEvent& event, std::string resolution,
                             bool adopted) {
    AmbiguitySpan& span = report.ambiguity[index];
    span.end = event.time;
    span.close_eid = event.eid;
    span.resolution = std::move(resolution);
    span.adopted = adopted;
    std::erase(fold.open_ambiguity, index);
    if (--ambiguity_open_total == 0) {
      d.time_in_ambiguity_ticks += event.time - ambiguity_open_at;
    }
  };

  auto open_ambiguity = [&](ProcessFold& fold, const TraceEvent& event) {
    AmbiguitySpan span;
    span.process = event.a;
    span.number = event.number;
    span.members = event.members;
    span.start = event.time;
    span.open_eid = event.eid;
    fold.open_ambiguity.push_back(report.ambiguity.size());
    report.ambiguity.push_back(std::move(span));
    if (ambiguity_open_total++ == 0) ambiguity_open_at = event.time;
    d.max_open_ambiguity =
        std::max(d.max_open_ambiguity,
                 static_cast<std::uint64_t>(fold.open_ambiguity.size()));
  };

  for (const TraceEvent& event : events) {
    d.horizon = std::max(d.horizon, event.time);
    switch (event.kind) {
      case TraceEventKind::kViewInstalled: {
        ProcessFold& fold = folds[event.a];
        close_session(fold, event, "superseded");
        SessionSpan span;
        span.process = event.a;
        span.start = event.time;
        span.open_eid = event.eid;
        span.view_id = event.number;
        span.members = event.members;
        fold.open_session = report.sessions.size();
        report.sessions.push_back(std::move(span));
        break;
      }
      case TraceEventKind::kSessionAttempt: {
        ProcessFold& fold = folds[event.a];
        if (fold.open_session != ProcessFold::kNone) {
          SessionSpan& span = report.sessions[fold.open_session];
          span.attempt_eid = event.eid;
          span.number = event.number;
          span.members = event.members;
        }
        // Figure 1 step 2: a same-membership re-attempt overwrites the
        // recorded ambiguous session.
        for (std::size_t i = fold.open_ambiguity.size(); i-- > 0;) {
          const std::size_t index = fold.open_ambiguity[i];
          if (report.ambiguity[index].members == event.members) {
            close_ambiguity(fold, index, event, "overwritten", false);
          }
        }
        open_ambiguity(fold, event);
        break;
      }
      case TraceEventKind::kSessionFormed: {
        ProcessFold& fold = folds[event.a];
        if (fold.open_session != ProcessFold::kNone) {
          report.sessions[fold.open_session].rounds =
              static_cast<int>(event.value);
        }
        close_session(fold, event, "formed");
        // apply_form clears the whole ambiguous list.
        while (!fold.open_ambiguity.empty()) {
          close_ambiguity(fold, fold.open_ambiguity.back(), event, "formed",
                          false);
        }
        PrimarySpan primary;
        primary.process = event.a;
        primary.number = event.number;
        primary.members = event.members;
        primary.start = event.time;
        primary.open_eid = event.eid;
        fold.open_primary = report.primaries.size();
        report.primaries.push_back(std::move(primary));
        break;
      }
      case TraceEventKind::kPrimaryLost: {
        ProcessFold& fold = folds[event.a];
        if (fold.open_primary != ProcessFold::kNone) {
          PrimarySpan& span = report.primaries[fold.open_primary];
          span.end = event.time;
          span.close_eid = event.eid;
          fold.open_primary = ProcessFold::kNone;
        }
        break;
      }
      case TraceEventKind::kSessionAbort: {
        ProcessFold& fold = folds[event.a];
        if (fold.open_session != ProcessFold::kNone) {
          report.sessions[fold.open_session].reason = event.detail;
        }
        close_session(fold, event, "aborted");
        break;
      }
      case TraceEventKind::kProcessCrash: {
        // kPrimaryLost precedes the crash event, so only the session
        // span can still be open here.
        close_session(folds[event.a], event, "crashed");
        break;
      }
      case TraceEventKind::kAmbiguityResolved:
      case TraceEventKind::kAmbiguityAdopted: {
        const bool adopted = event.kind == TraceEventKind::kAmbiguityAdopted;
        ProcessFold& fold = folds[event.a];
        for (std::size_t i = fold.open_ambiguity.size(); i-- > 0;) {
          const std::size_t index = fold.open_ambiguity[i];
          if (report.ambiguity[index].number == event.number) {
            close_ambiguity(fold, index, event, event.detail, adopted);
          }
        }
        break;
      }
      default:
        break;  // message/topology/recover/level events open no spans
    }
  }

  // The ambiguity union interval counts its open tail up to the horizon:
  // "time in ambiguity" would read 0 for exactly the runs where a record
  // is never resolved, which is the interesting case.
  if (ambiguity_open_total > 0) {
    d.time_in_ambiguity_ticks += d.horizon - ambiguity_open_at;
  }

  // Spans still open when the trace ends keep outcome "open" but get a
  // horizon end so durations are usable.
  for (SessionSpan& span : report.sessions) {
    if (span.close_eid == 0) span.end = d.horizon;
  }
  for (AmbiguitySpan& span : report.ambiguity) {
    if (span.close_eid == 0) span.end = d.horizon;
  }
  for (PrimarySpan& span : report.primaries) {
    if (span.close_eid == 0) {
      span.end = d.horizon;
      span.open = true;
    }
  }
  return report;
}

JsonValue spans_to_json(const SpanReport& report) {
  JsonValue sessions = JsonValue::array();
  for (const SessionSpan& span : report.sessions) {
    JsonValue s = JsonValue::object();
    s.set("p", JsonValue(static_cast<std::uint64_t>(span.process.value())));
    s.set("start", JsonValue(span.start));
    s.set("end", JsonValue(span.end));
    s.set("open_eid", JsonValue(span.open_eid));
    if (span.attempt_eid != 0) s.set("attempt_eid", JsonValue(span.attempt_eid));
    if (span.close_eid != 0) s.set("close_eid", JsonValue(span.close_eid));
    s.set("view", JsonValue(span.view_id));
    if (span.number >= 0) s.set("n", JsonValue(span.number));
    s.set("m", process_set_to_json(span.members));
    if (span.rounds != 0) s.set("rounds", JsonValue(span.rounds));
    s.set("outcome", JsonValue(span.outcome));
    if (!span.reason.empty()) s.set("reason", JsonValue(span.reason));
    sessions.push_back(std::move(s));
  }

  JsonValue ambiguity = JsonValue::array();
  for (const AmbiguitySpan& span : report.ambiguity) {
    JsonValue s = JsonValue::object();
    s.set("p", JsonValue(static_cast<std::uint64_t>(span.process.value())));
    s.set("n", JsonValue(span.number));
    s.set("m", process_set_to_json(span.members));
    s.set("start", JsonValue(span.start));
    s.set("end", JsonValue(span.end));
    s.set("open_eid", JsonValue(span.open_eid));
    if (span.close_eid != 0) s.set("close_eid", JsonValue(span.close_eid));
    if (span.adopted) s.set("adopted", JsonValue(true));
    s.set("resolution", JsonValue(span.resolution));
    ambiguity.push_back(std::move(s));
  }

  JsonValue primaries = JsonValue::array();
  for (const PrimarySpan& span : report.primaries) {
    JsonValue s = JsonValue::object();
    s.set("p", JsonValue(static_cast<std::uint64_t>(span.process.value())));
    s.set("n", JsonValue(span.number));
    s.set("m", process_set_to_json(span.members));
    s.set("start", JsonValue(span.start));
    s.set("end", JsonValue(span.end));
    s.set("open_eid", JsonValue(span.open_eid));
    if (span.close_eid != 0) s.set("close_eid", JsonValue(span.close_eid));
    if (span.open) s.set("open", JsonValue(true));
    primaries.push_back(std::move(s));
  }

  const DerivedMetrics& d = report.derived;
  JsonValue derived = JsonValue::object();
  derived.set("time_in_ambiguity_ticks", JsonValue(d.time_in_ambiguity_ticks));
  derived.set("max_open_ambiguity", JsonValue(d.max_open_ambiguity));
  derived.set("horizon", JsonValue(d.horizon));

  JsonValue out = JsonValue::object();
  out.set("sessions", std::move(sessions));
  out.set("ambiguity", std::move(ambiguity));
  out.set("primaries", std::move(primaries));
  out.set("derived", std::move(derived));
  return out;
}

namespace {

JsonValue chrome_event(const char* name, const char* cat, const char* ph,
                       std::uint64_t tid, SimTime ts) {
  JsonValue e = JsonValue::object();
  e.set("name", JsonValue(name));
  e.set("cat", JsonValue(cat));
  e.set("ph", JsonValue(ph));
  e.set("pid", JsonValue(std::uint64_t{0}));
  e.set("tid", JsonValue(tid));
  e.set("ts", JsonValue(ts));
  return e;
}

std::string span_name(const char* prefix, std::int64_t number) {
  return std::string(prefix) + " " + std::to_string(number);
}

}  // namespace

JsonValue chrome_trace_json(const TraceMeta& meta,
                            const std::vector<TraceEvent>& events,
                            const SpanReport& report) {
  // One track per process; the network/topology track sits after the
  // highest process id seen anywhere.
  std::set<std::uint64_t> tids;
  for (const ProcessId p : meta.core) tids.insert(p.value());
  for (const SessionSpan& span : report.sessions) {
    tids.insert(span.process.value());
  }
  for (const TraceEvent& event : events) tids.insert(event.a.value());
  const std::uint64_t network_tid = tids.empty() ? 0 : *tids.rbegin() + 1;

  JsonValue trace_events = JsonValue::array();
  for (const std::uint64_t tid : tids) {
    JsonValue m = JsonValue::object();
    m.set("name", JsonValue("thread_name"));
    m.set("ph", JsonValue("M"));
    m.set("pid", JsonValue(std::uint64_t{0}));
    m.set("tid", JsonValue(tid));
    JsonValue args = JsonValue::object();
    args.set("name", JsonValue("p" + std::to_string(tid)));
    m.set("args", std::move(args));
    trace_events.push_back(std::move(m));
  }
  {
    JsonValue m = JsonValue::object();
    m.set("name", JsonValue("thread_name"));
    m.set("ph", JsonValue("M"));
    m.set("pid", JsonValue(std::uint64_t{0}));
    m.set("tid", JsonValue(network_tid));
    JsonValue args = JsonValue::object();
    args.set("name", JsonValue("network"));
    m.set("args", std::move(args));
    trace_events.push_back(std::move(m));
  }

  for (const SessionSpan& span : report.sessions) {
    JsonValue e = chrome_event(
        (span.number >= 0 ? span_name("session", span.number)
                          : span_name("view", span.view_id))
            .c_str(),
        "session", "X", span.process.value(), span.start);
    e.set("dur", JsonValue(span.end - span.start));
    JsonValue args = JsonValue::object();
    args.set("outcome", JsonValue(span.outcome));
    args.set("members", JsonValue(span.members.to_string()));
    if (span.rounds != 0) args.set("rounds", JsonValue(span.rounds));
    if (!span.reason.empty()) args.set("reason", JsonValue(span.reason));
    e.set("args", std::move(args));
    trace_events.push_back(std::move(e));
  }

  for (const PrimarySpan& span : report.primaries) {
    JsonValue e =
        chrome_event(span_name("primary", span.number).c_str(), "primary", "X",
                     span.process.value(), span.start);
    e.set("dur", JsonValue(span.end - span.start));
    JsonValue args = JsonValue::object();
    args.set("members", JsonValue(span.members.to_string()));
    if (span.open) args.set("open", JsonValue(true));
    e.set("args", std::move(args));
    trace_events.push_back(std::move(e));
  }

  // Ambiguity lifetimes overlap at one process, so they go out as async
  // begin/end pairs (Perfetto stacks those instead of rejecting the
  // overlap). The pair id is the opening eid — unique per span.
  for (const AmbiguitySpan& span : report.ambiguity) {
    JsonValue b =
        chrome_event(span_name("ambiguous", span.number).c_str(), "ambiguity",
                     "b", span.process.value(), span.start);
    b.set("id", JsonValue(std::to_string(span.open_eid)));
    trace_events.push_back(std::move(b));
    JsonValue e =
        chrome_event(span_name("ambiguous", span.number).c_str(), "ambiguity",
                     "e", span.process.value(), span.end);
    e.set("id", JsonValue(std::to_string(span.open_eid)));
    JsonValue args = JsonValue::object();
    args.set("resolution", JsonValue(span.resolution));
    e.set("args", std::move(args));
    trace_events.push_back(std::move(e));
  }

  for (const TraceEvent& event : events) {
    switch (event.kind) {
      case TraceEventKind::kMessageDrop: {
        JsonValue e = chrome_event(
            ("drop p" + std::to_string(event.a.value()) + "->p" +
             std::to_string(event.b.value()))
                .c_str(),
            "network", "i", network_tid, event.time);
        e.set("s", JsonValue("t"));
        JsonValue args = JsonValue::object();
        args.set("cause",
                 JsonValue(to_string(static_cast<DropCause>(event.value))));
        if (!event.detail.empty()) args.set("payload", JsonValue(event.detail));
        e.set("args", std::move(args));
        trace_events.push_back(std::move(e));
        break;
      }
      case TraceEventKind::kTopologyChange: {
        JsonValue e = chrome_event(
            ("topology " + event.members.to_string()).c_str(), "network", "i",
            network_tid, event.time);
        e.set("s", JsonValue("g"));
        trace_events.push_back(std::move(e));
        break;
      }
      case TraceEventKind::kProcessCrash:
      case TraceEventKind::kProcessRecover: {
        const bool crash = event.kind == TraceEventKind::kProcessCrash;
        JsonValue e = chrome_event(crash ? "crash" : "recover", "process", "i",
                                   event.a.value(), event.time);
        e.set("s", JsonValue("t"));
        trace_events.push_back(std::move(e));
        break;
      }
      default:
        break;
    }
  }

  JsonValue out = JsonValue::object();
  out.set("displayTimeUnit", JsonValue("ms"));
  JsonValue other = JsonValue::object();
  other.set("protocol", JsonValue(meta.protocol));
  other.set("seed", JsonValue(meta.seed));
  other.set("n", JsonValue(static_cast<std::uint64_t>(meta.n)));
  out.set("otherData", std::move(other));
  out.set("traceEvents", std::move(trace_events));
  return out;
}

}  // namespace dynvote::obs
