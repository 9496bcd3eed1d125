// The Sub_Quorum predicate (paper sections 4.1 and 6).
//
// Sub_Quorum(S, T) answers: "may T become the new quorum, given that the
// previous quorum was S?" — TRUE iff
//
//   1. |T ∩ W| >= Min_Quorum, and
//   2. (a) |T ∩ S| > |S| / 2                                  (majority), or
//      (b) |T ∩ S| = |S| / 2 and the top-ranked member of S is in T
//                                                            (linear tie), or
//      (c) |T ∩ (W ∪ A)| > |W ∪ A| - Min_Quorum           (unconditional).
//
// In the static-core protocol of section 4.1, W = W ∪ A = W0 (the fixed
// core). In the dynamically-changing protocol of section 6, W is the set
// of admitted participants and A the not-yet-admitted joiners; clause (c)
// then guarantees that any sufficiently large component can always make
// progress, no matter what history says.
//
// The previous quorum S = ∞ — a process that knows no primary (late
// joiner or destroyed disk) — satisfies Sub_Quorum(∞, T) = FALSE for all
// T, per the paper's extension of the predicate.
#pragma once

#include <optional>
#include <string>

#include "util/process_set.hpp"

namespace dynvote {

/// Evaluation context for Sub_Quorum: which participants count towards
/// the Min_Quorum floor. Immutable snapshot; the dynamic protocol builds
/// a fresh one each attempt step from its W / A variables.
class QuorumCalculus {
 public:
  /// Static-core calculus (paper 4.1): W = W∪A = W0. `linear_tie_break`
  /// = false disables clause 2b, degrading dynamic *linear* voting [12]
  /// to plain dynamic voting — the E-ablation bench measures the cost.
  QuorumCalculus(ProcessSet core, std::size_t min_quorum,
                 bool linear_tie_break = true);

  /// Dynamic calculus (paper 6): admitted = W, all = W ∪ A.
  /// Precondition: admitted ⊆ all.
  QuorumCalculus(ProcessSet admitted, ProcessSet all, std::size_t min_quorum,
                 bool linear_tie_break = true);

  /// Clause 1: |T ∩ W| >= Min_Quorum.
  [[nodiscard]] bool meets_min_quorum(const ProcessSet& T) const;

  /// Clause 2c: |T ∩ (W∪A)| > |W∪A| − Min_Quorum. Such a T is a
  /// sub-quorum of *every* recorded session ("regardless of past events",
  /// paper section 1). Note this does not waive clause 1; the full
  /// predicate checks both.
  [[nodiscard]] bool unconditional(const ProcessSet& T) const;

  /// The full predicate for a known (finite) previous quorum. Overload
  /// taken by the attempt-step hot path, which holds concrete session
  /// membership sets — routing those through the optional overload would
  /// deep-copy S into a temporary per evaluation.
  [[nodiscard]] bool sub_quorum(const ProcessSet& S, const ProcessSet& T) const;

  /// The full predicate. `S == nullopt` encodes the ∞ previous quorum.
  [[nodiscard]] bool sub_quorum(const std::optional<ProcessSet>& S,
                                const ProcessSet& T) const;

  [[nodiscard]] const ProcessSet& admitted() const noexcept { return admitted_; }
  [[nodiscard]] const ProcessSet& all_participants() const noexcept {
    return all_;
  }
  [[nodiscard]] std::size_t min_quorum() const noexcept { return min_quorum_; }

  [[nodiscard]] std::string to_string() const;

 private:
  ProcessSet admitted_;  // W
  ProcessSet all_;       // W ∪ A
  std::size_t min_quorum_;
  bool linear_tie_break_;
  /// W == W∪A (every static-core calculus). Lets sub_quorum reuse the
  /// clause-1 overlap for clause 2c instead of walking T ∩ W∪A again —
  /// at four-digit n each walk is the dominant cost of the predicate.
  bool same_core_;
};

/// Property 1 of the scheme (paper 4.1): Sub_Quorum(S,T) implies S and T
/// intersect — exposed for the property-based tests. Precondition: S
/// meets Min_Quorum under `calc`, as every formed quorum does. Clause 2c
/// grants T without looking at S, so only |S ∩ W| >= Min_Quorum makes S
/// and T overlap there; for an S below the floor the property fails.
[[nodiscard]] bool sub_quorum_implies_intersection(const QuorumCalculus& calc,
                                                   const ProcessSet& S,
                                                   const ProcessSet& T);

}  // namespace dynvote
