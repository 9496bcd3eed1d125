#include "baselines/naive_dynamic.hpp"

#include <utility>

#include "util/ensure.hpp"

namespace dynvote {

namespace {

constexpr const char* kStateKey = "naive.state";

PersistenceOptions snapshot_mode(PersistenceOptions options) {
  options.mode = PersistenceMode::kSnapshot;
  return options;
}

}  // namespace

// Snapshot mode: the raw ProtocolState, rewritten at birth and at every
// formation. No registry, so the baseline adds no dv.storage.* counter
// to the fleet's metrics; StableStorage still counts its writes.
NaiveDynamicProtocol::NaiveDynamicProtocol(sim::Transport& transport,
                                           ProcessId id, DvConfig config)
    : SessionProtocolBase(transport, id, /*max_phases=*/1),
      config_(std::move(config)),
      wal_(storage(), /*metrics=*/nullptr, kStateKey, id,
           snapshot_mode(config_.persistence),
           ProtocolState::initial(config_.core, id)) {}

void NaiveDynamicProtocol::handle_recover() { wal_.recover(); }

void NaiveDynamicProtocol::begin_session(const View& view) {
  (void)view;
  const ProtocolState& state = wal_.state();
  auto info = std::make_shared<InfoPayload>();
  info->session_number = state.session_number;
  info->has_history = state.has_history;
  info->last_primary = state.last_primary;
  // No ambiguous sessions — that is the point of this baseline.
  send_phase(0, std::move(info));
}

void NaiveDynamicProtocol::on_phase_complete(int phase,
                                             const PhaseMessages& messages) {
  ensure(phase == 0, "naive protocol has a single phase");
  const ProcessSet& M = session_view().members;
  const StepAggregates agg = aggregate_step1(as_infos(messages));
  const QuorumCalculus calc(config_.core, config_.min_quorum);
  Eligibility verdict = evaluate_eligibility(calc, agg, M);
  if (!verdict.eligible) {
    abort_session(std::move(verdict.reason));
    return;
  }
  // Install immediately: no attempt round, no durable trace for members
  // that detach before this point.
  const Session session{M, agg.max_session + 1};
  wal_.apply(StateDelta::form(session));
  wal_.commit();
  mark_primary(session);
}

}  // namespace dynvote
