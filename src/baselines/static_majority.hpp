// Baseline: static majority voting.
//
// The classic quorum rule the dynamic-voting literature compares against
// (paper section 1): a component is the primary iff it contains a strict
// majority of the fixed core group W0. Decides locally from the membership
// view: zero communication rounds, trivially consistent (all majorities
// intersect), and the least available option under repeated partitions.
#pragma once

#include "dv/protocol_base.hpp"
#include "util/process_set.hpp"

namespace dynvote {

class StaticMajorityProtocol : public SessionProtocolBase {
 public:
  /// `core` is the fixed core group W0.
  StaticMajorityProtocol(sim::Transport& transport, ProcessId id,
                         ProcessSet core);

 protected:
  void begin_session(const View& view) override;
  void on_phase_complete(int phase, const PhaseMessages& messages) override;

 private:
  ProcessSet core_;
};

}  // namespace dynvote
