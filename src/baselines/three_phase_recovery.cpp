#include "baselines/three_phase_recovery.hpp"

#include "util/ensure.hpp"

namespace dynvote {

void ThreePhaseRecoveryProtocol::on_phase_complete(
    int phase, const PhaseMessages& messages) {
  switch (phase) {
    case 0:
      // Same decision as ours — but even when it succeeds, three explicit
      // resolution rounds run before anyone dares to attempt.
      if (run_decision(messages)) {
        // The decision step may have merged the participant sets; those
        // must be durable before the propose round exposes them (section
        // 4.4). run_decision only persists on rejection.
        wal_.commit();
        send_phase(1, std::make_shared<RoundPayload>(1, "3pc.propose"));
      }
      return;
    case 1:
      send_phase(2, std::make_shared<RoundPayload>(2, "3pc.vote"));
      return;
    case 2:
      send_phase(3, std::make_shared<RoundPayload>(3, "3pc.decide"));
      return;
    case 3:
      record_and_send_attempt(4);
      return;
    case 4:
      run_form_step(messages);
      return;
    default:
      ensure(false, "unexpected phase");
  }
}

}  // namespace dynvote
