#include "baselines/static_majority.hpp"

namespace dynvote {

StaticMajorityProtocol::StaticMajorityProtocol(sim::Transport& transport,
                                               ProcessId id, ProcessSet core)
    : SessionProtocolBase(transport, id, /*max_phases=*/0),
      core_(std::move(core)) {}

void StaticMajorityProtocol::begin_session(const View& view) {
  const ProcessSet& M = view.members;
  if (M.contains_majority_of(core_)) {
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
