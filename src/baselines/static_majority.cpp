#include "baselines/static_majority.hpp"

#include "quorum/linear_order.hpp"

namespace dynvote {

StaticMajorityProtocol::StaticMajorityProtocol(sim::Transport& transport,
                                               ProcessId id,
                                               StaticMajorityConfig config)
    : SessionProtocolBase(transport, id, /*max_phases=*/0),
      config_(std::move(config)) {}

void StaticMajorityProtocol::begin_session(const View& view) {
  const ProcessSet& M = view.members;
  bool primary = M.contains_majority_of(config_.core);
  if (!primary && config_.linear_tie_break &&
      M.contains_exact_half_of(config_.core)) {
    primary = tie_break_favors(config_.core, M);
  }
  if (primary) {
    // Static quorums need no session-number machinery for consistency
    // (all quorums pairwise intersect); the globally increasing view id
    // doubles as a monotone session number for the observers.
    mark_primary(Session{M, static_cast<SessionNumber>(view.id.value())});
  } else {
    abort_session("no static majority of the core group");
  }
}

void StaticMajorityProtocol::on_phase_complete(int /*phase*/,
                                               const PhaseMessages& /*messages*/) {
  // Unreachable: the protocol has no communication phases.
}

}  // namespace dynvote
