// Baseline: naive dynamic voting — NO attempt step.
//
// The protocol class of [Davcev-Burkhard 85], [Paris-Long 88] and
// [El Abbadi-Dani 91] as characterized by the paper's introduction: each
// process keeps only its last formed quorum; on a membership change the
// members exchange that state (one round) and immediately install the
// new quorum if it is a Sub_Quorum of the max known one.
//
// Because nothing records *attempts*, the paper's section-1 scenario
// splits the system into two concurrently live quorums: a member that
// detaches just before installing has no trace of the quorum the others
// formed. Experiment E1 reproduces exactly that inconsistency; the
// consistency checker reports it as a measurement, not a crash.
#pragma once

#include "dv/basic_protocol.hpp"
#include "dv/protocol_base.hpp"
#include "dv/state.hpp"
#include "dv/wal.hpp"

namespace dynvote {

class NaiveDynamicProtocol : public SessionProtocolBase {
 public:
  NaiveDynamicProtocol(sim::Transport& transport, ProcessId id,
                       DvConfig config);

  [[nodiscard]] const ProtocolState& state() const noexcept {
    return wal_.state();
  }

 protected:
  void begin_session(const View& view) override;
  void on_phase_complete(int phase, const PhaseMessages& messages) override;
  void handle_recover() override;

 private:
  DvConfig config_;
  WalPersistence wal_;
};

}  // namespace dynvote
