#include "baselines/hybrid_jm.hpp"

#include "quorum/linear_order.hpp"
#include "util/ensure.hpp"

namespace dynvote {

HybridJmProtocol::HybridJmProtocol(sim::Transport& transport, ProcessId id,
                                   DvConfig config)
    : BasicDvProtocol(transport, id, std::move(config)) {
  ensure(config_.core.size() >= 3,
         "hybrid voting needs a core of at least three processes");
}

bool HybridJmProtocol::hybrid_rule(const ProcessSet& S, const ProcessSet& M) {
  if (S.size() > 3) {
    return M.contains_majority_of(S) ||
           (M.contains_exact_half_of(S) && tie_break_favors(S, M));
  }
  // Static floor: majority of the (<= 3)-member reference; a single
  // process can never satisfy this.
  return M.intersection_size(S) >= 2;
}

Eligibility HybridJmProtocol::decide(const QuorumCalculus& /*calc*/,
                                     const StepAggregates& agg,
                                     const ProcessSet& M) const {
  if (!agg.max_primary) {
    return {false, "Max_Primary = (∞,-1): no member knows a primary"};
  }
  if (!hybrid_rule(agg.max_primary->members, M)) {
    return {false, "hybrid rule rejects succession of " +
                       agg.max_primary->to_string()};
  }
  for (const Session& attempt : agg.max_ambiguous) {
    if (!hybrid_rule(attempt.members, M)) {
      return {false, "hybrid rule rejects ambiguous attempt " +
                         attempt.to_string()};
    }
  }
  return {true, {}};
}

Session HybridJmProtocol::make_formed_record(const Session& actual) const {
  if (actual.members.size() >= 3) return actual;
  // Keep the session's agreed (>= 3)-member reference set — the static
  // floor. Every member records the same Max_Primary, so the references
  // stay identical across the quorum.
  const auto& reference = pending_aggregates().max_primary;
  ensure(reference.has_value(), "no reference quorum to keep");
  ensure(reference->members.size() >= 3, "reference below the static floor");
  return Session{reference->members, actual.number};
}

}  // namespace dynvote
