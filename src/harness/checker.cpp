#include "harness/checker.hpp"

#include <algorithm>

#include "util/ensure.hpp"

namespace dynvote {

ConsistencyChecker::ConsistencyChecker(const ProcessSet& core,
                                       bool seed_initial)
    : core_(core), seed_initial_(seed_initial) {
  if (seed_initial_ && !core_.empty()) {
    const Session f0{core_, 0};
    formed_.insert(f0);
    formed_order_.push_back(f0);
    for (ProcessId p : core_) participation_[p].push_back(f0);
  }
}

void ConsistencyChecker::note(const obs::TraceEvent& event) {
  switch (event.kind) {
    case obs::TraceEventKind::kSessionAttempt:
      on_attempt(event.time, event.a, Session{event.members, event.number});
      break;
    case obs::TraceEventKind::kSessionFormed:
      on_formed(event.time, event.a, Session{event.members, event.number});
      break;
    case obs::TraceEventKind::kPrimaryLost:
      on_primary_lost(event.time, event.a);
      break;
    case obs::TraceEventKind::kAmbiguityRecord: {
      const std::size_t p = event.a.value();
      if (p >= max_ambiguous_.size()) max_ambiguous_.resize(p + 1, 0);
      max_ambiguous_[p] = std::max(max_ambiguous_[p], event.value);
      break;
    }
    default:
      break;  // message/topology events carry no correctness obligations
  }
}

void ConsistencyChecker::on_attempt(SimTime /*time*/, ProcessId p,
                                    Session session) {
  note_participation(p, std::move(session));
}

void ConsistencyChecker::on_formed(SimTime time, ProcessId p,
                                   Session session) {
  if (formed_.insert(session).second) formed_order_.push_back(session);
  note_participation(p, session);
  // The process enters a live primary; close a dangling interval first
  // (defensive — protocols report loss before re-forming).
  auto open = open_interval_.find(p);
  if (open != open_interval_.end()) {
    intervals_[open->second].end = time;
    open_interval_.erase(open);
  }
  open_interval_[p] = intervals_.size();
  intervals_.push_back(Interval{p, std::move(session), time, std::nullopt});
}

void ConsistencyChecker::on_primary_lost(SimTime time, ProcessId p) {
  auto open = open_interval_.find(p);
  if (open == open_interval_.end()) return;
  intervals_[open->second].end = time;
  open_interval_.erase(open);
}

std::uint64_t ConsistencyChecker::max_ambiguous() const noexcept {
  std::uint64_t out = 0;
  for (const std::uint64_t level : max_ambiguous_) out = std::max(out, level);
  return out;
}

std::vector<Violation> ConsistencyChecker::check_basic() const {
  std::vector<Violation> out;

  // V2: duplicate session numbers among distinct formed sessions.
  std::map<SessionNumber, const Session*> by_number;
  for (const Session& s : formed_order_) {
    auto [it, inserted] = by_number.try_emplace(s.number, &s);
    if (!inserted) {
      out.push_back({"dup-number", "formed sessions " + it->second->to_string() +
                                       " and " + s.to_string() +
                                       " share a session number"});
    }
  }

  // V1: concurrent live primaries with disjoint memberships — a sweep
  // over intervals ordered by start time.
  std::vector<const Interval*> sorted;
  sorted.reserve(intervals_.size());
  for (const Interval& iv : intervals_) sorted.push_back(&iv);
  std::sort(sorted.begin(), sorted.end(),
            [](const Interval* a, const Interval* b) {
              return a->start < b->start;
            });
  std::vector<const Interval*> active;
  for (const Interval* iv : sorted) {
    std::erase_if(active, [&](const Interval* other) {
      return other->end && *other->end <= iv->start;
    });
    for (const Interval* other : active) {
      if (other->session == iv->session) continue;
      if (!other->session.members.intersects(iv->session.members)) {
        out.push_back(
            {"split-brain",
             dynvote::to_string(iv->process) + " live in " +
                 iv->session.to_string() + " while " +
                 dynvote::to_string(other->process) + " live in disjoint " +
                 other->session.to_string()});
      }
    }
    active.push_back(iv);
  }
  return out;
}

std::vector<Violation> ConsistencyChecker::check_order() const {
  std::vector<Violation> out;
  const std::size_t k = formed_order_.size();
  if (k < 2) return out;

  // reaches[i][j] == true  <=>  F_i ≺ F_j (via participation chains).
  std::vector<std::vector<bool>> reaches(k, std::vector<bool>(k, false));
  std::map<Session, std::size_t> index;
  for (std::size_t i = 0; i < k; ++i) index[formed_order_[i]] = i;

  // Direct edges: some process participates in both, one before the
  // other in its local sequence. Participation = attempted or formed
  // (paper section 2: "participates ... i.e. attempts to form").
  for (const auto& [p, sessions] : participation_) {
    for (std::size_t a = 0; a < sessions.size(); ++a) {
      auto ia = index.find(sessions[a]);
      if (ia == index.end()) continue;  // attempted but never formed
      for (std::size_t b = a + 1; b < sessions.size(); ++b) {
        auto ib = index.find(sessions[b]);
        if (ib == index.end()) continue;
        reaches[ia->second][ib->second] = true;
      }
    }
  }

  // Transitive closure (Floyd-Warshall on booleans).
  for (std::size_t m = 0; m < k; ++m) {
    for (std::size_t i = 0; i < k; ++i) {
      if (!reaches[i][m]) continue;
      for (std::size_t j = 0; j < k; ++j) {
        if (reaches[m][j]) reaches[i][j] = true;
      }
    }
  }

  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      const bool fwd = reaches[i][j];
      const bool bwd = reaches[j][i];
      if (fwd && bwd) {
        out.push_back({"order-cycle", formed_order_[i].to_string() + " and " +
                                          formed_order_[j].to_string() +
                                          " precede each other"});
      } else if (!fwd && !bwd) {
        out.push_back({"order-partial", formed_order_[i].to_string() + " and " +
                                            formed_order_[j].to_string() +
                                            " are ≺-incomparable"});
      }
    }
  }
  return out;
}

std::vector<Violation> ConsistencyChecker::check_all() const {
  std::vector<Violation> out = check_basic();
  if (formed_order_.size() <= kOrderCheckLimit) {
    const auto order = check_order();
    out.insert(out.end(), order.begin(), order.end());
  }
  return out;
}

SimTime ConsistencyChecker::primary_uptime(SimTime horizon) const {
  // Merge the [start, end) spans of all live-primary intervals.
  std::vector<std::pair<SimTime, SimTime>> spans;
  spans.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    const SimTime end = iv.end.value_or(horizon);
    if (iv.start >= end) continue;
    spans.emplace_back(iv.start, std::min(end, horizon));
  }
  std::sort(spans.begin(), spans.end());
  SimTime total = 0;
  SimTime cursor = 0;
  for (const auto& [start, end] : spans) {
    const SimTime from = std::max(cursor, start);
    if (end > from) {
      total += end - from;
      cursor = end;
    }
  }
  return total;
}

std::vector<std::pair<ProcessId, Session>> ConsistencyChecker::live_primaries()
    const {
  std::vector<std::pair<ProcessId, Session>> out;
  for (const auto& [p, idx] : open_interval_) {
    out.emplace_back(p, intervals_[idx].session);
  }
  return out;
}

bool ConsistencyChecker::session_live_at(const Session& session,
                                         SimTime t) const {
  for (const Interval& iv : intervals_) {
    if (!(iv.session == session)) continue;
    if (iv.start <= t && (!iv.end || *iv.end > t)) return true;
  }
  return false;
}

std::vector<Session> ConsistencyChecker::disjoint_live_at(
    const Session& session, SimTime t) const {
  std::vector<Session> out;
  for (const Session& other : formed_order_) {
    if (other == session || other.members.intersects(session.members)) {
      continue;
    }
    if (session_live_at(other, t)) out.push_back(other);
  }
  return out;
}

std::string to_string(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) {
    out += v.kind + ": " + v.detail + "\n";
  }
  return out;
}

}  // namespace dynvote
