// Baseline: static majority voting.
//
// The classic quorum rule the dynamic-voting literature compares against
// (paper section 1): a component is the primary iff it contains a strict
// majority of the fixed core group W0 — optionally, with dynamic linear
// voting's tie-break at exactly half. Decides locally from the membership
// view: zero communication rounds, trivially consistent (all majorities
// intersect), and the least available option under repeated partitions.
#pragma once

#include "dv/protocol_base.hpp"
#include "util/process_set.hpp"

namespace dynvote {

struct StaticMajorityConfig {
  ProcessSet core;
  /// If true, a component holding exactly half of W0 including the
  /// top-ranked member also qualifies (weighted static linear voting).
  bool linear_tie_break = false;
};

class StaticMajorityProtocol : public SessionProtocolBase {
 public:
  StaticMajorityProtocol(sim::Transport& transport, ProcessId id,
                         StaticMajorityConfig config);

 protected:
  void begin_session(const View& view) override;
  void on_phase_complete(int phase, const PhaseMessages& messages) override;

 private:
  StaticMajorityConfig config_;
};

}  // namespace dynvote
