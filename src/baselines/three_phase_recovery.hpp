// Baseline: explicit three-phase recovery before installation
// (the [Malloth-Schiper 95] approach the paper contrasts with).
//
// [17] resolves the status of past quorums by running Chandra-Toueg
// style three-phase consensus BEFORE installing a new quorum: "when a
// majority of the previous quorum reconnects, at least five
// communication rounds are needed in order to form a new quorum"
// (paper section 1). Our protocol folds resolution into installation
// and needs only two.
//
// Modelled rounds: info, resolve-propose, resolve-vote, resolve-decide,
// attempt — then form on receipt of all attempts. The quorum rules are
// identical to our basic protocol (this baseline is *correct*; the cost
// is latency and messages, which experiment E4 measures).
#pragma once

#include "dv/basic_protocol.hpp"

namespace dynvote {

class ThreePhaseRecoveryProtocol : public BasicDvProtocol {
 public:
  ThreePhaseRecoveryProtocol(sim::Transport& transport, ProcessId id,
                             DvConfig config)
      : BasicDvProtocol(transport, id, std::move(config), /*max_phases=*/5) {}

 protected:
  void on_phase_complete(int phase, const PhaseMessages& messages) override;
};

}  // namespace dynvote
