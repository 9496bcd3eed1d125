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
#include "util/stats.hpp"

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

  /// Feeds one trace event: attempts, formations, primary losses and
  /// aborts reach the on_* steps below, every other kind is ignored.
  void note(const obs::TraceEvent& event) override;

  // -- the steps note() takes, also fed directly by unit tests -----------------
  void on_attempt(SimTime time, ProcessId p, Session session);
  void on_formed(SimTime time, ProcessId p, Session session, int rounds);
  void on_primary_lost(SimTime time, ProcessId p);
  void on_session_rejected(const std::string& reason);

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
  [[nodiscard]] std::uint64_t form_events() const noexcept { return form_events_; }
  [[nodiscard]] std::uint64_t rejected_sessions() const noexcept {
    return rejected_;
  }
  /// Rejections whose reason marks a blocking wait (the blocking
  /// baseline's signature failure mode).
  [[nodiscard]] std::uint64_t blocked_sessions() const noexcept {
    return blocked_;
  }
  [[nodiscard]] const Summary& rounds_per_form() const noexcept {
    return rounds_;
  }

  /// Total virtual time during which at least one process was in a live
  /// primary component, up to `horizon`.
  [[nodiscard]] SimTime primary_uptime(SimTime horizon) const;

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

  std::uint64_t form_events_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t blocked_ = 0;
  Summary rounds_;

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
