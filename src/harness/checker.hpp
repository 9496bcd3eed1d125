// Consistency checker: an external witness of protocol executions.
//
// The paper's correctness requirement (section 2): the transitive
// closure of the participation order between intersecting formed primary
// components must be a total order. The checker reads the protocol's
// trace events (a live Cluster and check_trace feed it through the same
// note()) and verifies, post-hoc:
//
//   V1 "split-brain"    — two different primary components, with disjoint
//                         memberships, live at overlapping times;
//   V2 "dup-number"     — two distinct formed sessions share a session
//                         number (impossible for the paper's protocols,
//                         Lemma 10);
//   V3 "order-cycle"    — the participation relation on formed sessions
//                         has a cycle (so ≺ is not an order);
//   V4 "order-partial"  — two formed sessions are ≺-incomparable (so ≺ is
//                         not total).
//
// It also keeps each process's high-water of recorded ambiguous
// sessions, the quantity Theorem 1 bounds at n − Min_Quorum + 1 for the
// garbage-collecting protocol.
//
// Deliberately broken baselines run to completion; their violations are
// *results* the experiments report, not errors.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dv/session.hpp"
#include "obs/trace.hpp"
#include "util/process_set.hpp"

namespace dynvote {

struct Violation {
  std::string kind;    // "split-brain", "dup-number", "order-cycle", ...
  std::string detail;
};

/// Formed sessions above this count skip check_order's O(k^3) closure.
inline constexpr std::size_t kOrderCheckLimit = 400;

class ConsistencyChecker final : public obs::TraceListener {
 public:
  /// `core` seeds the initial primary component F0 = (W0, 0), which the
  /// dv-family protocols treat as formed by every core member. Pass
  /// seed_initial=false for protocols without that convention (static).
  explicit ConsistencyChecker(const ProcessSet& core, bool seed_initial = true);

  /// Feeds one trace event: attempts, formations and primary losses
  /// reach the on_* steps below, ambiguous-record levels the high-water;
  /// every other kind is ignored.
  void note(const obs::TraceEvent& event) override;

  // -- the steps note() takes, also fed directly by unit tests -----------------
  void on_attempt(SimTime time, ProcessId p, Session session);
  void on_formed(SimTime time, ProcessId p, Session session);
  void on_primary_lost(SimTime time, ProcessId p);

  // -- verdicts -----------------------------------------------------------------

  /// Runs V1 + V2 (cheap, any execution size).
  [[nodiscard]] std::vector<Violation> check_basic() const;

  /// Runs V3 + V4 via transitive closure — O(k^3) in the number of
  /// formed sessions; meant for scenario-scale executions.
  [[nodiscard]] std::vector<Violation> check_order() const;

  /// check_basic plus, up to kOrderCheckLimit formed sessions,
  /// check_order.
  [[nodiscard]] std::vector<Violation> check_all() const;

  // -- accounting ---------------------------------------------------------------

  [[nodiscard]] std::size_t formed_session_count() const noexcept {
    return formed_order_.size();
  }
  [[nodiscard]] const std::vector<Session>& formed_sessions() const noexcept {
    return formed_order_;
  }

  /// High-water of |Ambiguous_Sessions| that `p` recorded (0 if it never
  /// recorded a level) — the metric of experiment E3, exponential
  /// without garbage collection and linear with it.
  [[nodiscard]] std::uint64_t max_ambiguous(ProcessId p) const noexcept {
    return p.value() < max_ambiguous_.size() ? max_ambiguous_[p.value()] : 0;
  }
  /// The highest of every process's high-water.
  [[nodiscard]] std::uint64_t max_ambiguous() const noexcept;

  /// Processes currently (i.e., at the latest observed moment) inside a
  /// live primary, with their sessions.
  [[nodiscard]] std::vector<std::pair<ProcessId, Session>> live_primaries()
      const;

  /// True iff some process was live inside `session` at time `t` (an
  /// interval still open counts as live through any t >= its start).
  [[nodiscard]] bool session_live_at(const Session& session, SimTime t) const;

  /// The formed sessions disjoint from `session` that were live at `t`,
  /// in formation order: what an application audit reports when a write
  /// acknowledged in `session` at `t` could conflict with another primary.
  [[nodiscard]] std::vector<Session> disjoint_live_at(const Session& session,
                                                      SimTime t) const;

 private:
  struct Interval {
    ProcessId process;
    Session session;
    SimTime start = 0;
    std::optional<SimTime> end;  // nullopt = still live
  };

  ProcessSet core_;
  bool seed_initial_;

  std::set<Session> formed_;           // dedupes formed_order_
  std::vector<Session> formed_order_;  // insertion order
  std::map<ProcessId, std::vector<Session>> participation_;  // per process

  std::vector<Interval> intervals_;
  std::map<ProcessId, std::size_t> open_interval_;

  /// max_ambiguous_[p.value()]; grown on a process's first record.
  std::vector<std::uint64_t> max_ambiguous_;

  /// Appends `session` to p's participation sequence unless it is
  /// already the last entry; copies only an lvalue that is appended.
  template <typename S>
  void note_participation(ProcessId p, S&& session) {
    auto& list = participation_[p];
    if (list.empty() || !(list.back() == session)) {
      list.push_back(std::forward<S>(session));
    }
  }
};

/// Renders violations one per line (empty string if none).
[[nodiscard]] std::string to_string(const std::vector<Violation>& violations);

}  // namespace dynvote
