#include "dv/centralized_protocol.hpp"

#include "sim/simulator.hpp"
#include "sim/stable_storage.hpp"
#include "util/ensure.hpp"

namespace dynvote {

namespace {
constexpr const char* kStateKey = "dv.centralized.state";
}  // namespace

std::string CentralizedPayload::type_name() const {
  switch (hop) {
    case Hop::kInfo: return "dvc.info";
    case Hop::kAttempt: return "dvc.attempt";
    case Hop::kAck: return "dvc.ack";
    case Hop::kCommit: return "dvc.commit";
  }
  return "dvc.?";
}

std::size_t CentralizedPayload::encoded_size() const {
  if (hop == Hop::kInfo) return 1 + info.encoded_size();
  return 1 + 8;  // hop tag + session number
}

CentralizedDvProtocol::CentralizedDvProtocol(sim::Simulator& sim, ProcessId id,
                                             DvConfig config)
    : CentralizedDvProtocol(sim.transport(), id, std::move(config)) {}

CentralizedDvProtocol::CentralizedDvProtocol(sim::Transport& transport,
                                             ProcessId id, DvConfig config)
    : ProtocolNode(transport, id),
      state_(ProtocolState::initial(config.core, id)),
      config_(std::move(config)),
      wal_(storage(),
           config_.registry != nullptr ? config_.registry : &metrics(),
           kStateKey, id, config_.persistence) {
  wal_.checkpoint(state_);
}

ProcessId CentralizedDvProtocol::coordinator_of(const View& view) {
  ensure(!view.members.empty(), "empty view has no coordinator");
  return *view.members.begin();
}

bool CentralizedDvProtocol::coordinating() const {
  return current_view() && coordinator_of(*current_view()) == id();
}

void CentralizedDvProtocol::persist() { wal_.commit(state_); }

void CentralizedDvProtocol::on_view(const View& view) {
  leave_primary();
  session_active_ = true;
  collected_infos_.clear();
  acked_ = ProcessSet{};
  attempted_this_session_ = false;
  notify_view_installed(view);

  // Hop 1: everyone (the coordinator included, via loopback) reports its
  // state to the coordinator.
  auto msg = std::make_shared<CentralizedPayload>();
  msg->hop = CentralizedPayload::Hop::kInfo;
  msg->info.session_number = state_.session_number;
  msg->info.has_history = state_.has_history;
  msg->info.last_primary = state_.last_primary;
  for (const auto& a : state_.ambiguous) msg->info.ambiguous.push_back(a.session);
  if (config_.dynamic_participants) msg->info.participants = state_.participants;
  send(coordinator_of(view), std::move(msg));
}

void CentralizedDvProtocol::on_message(ProcessId from,
                                       sim::PayloadPtr payload) {
  if (!session_active_) return;
  const auto* msg = dynamic_cast<const CentralizedPayload*>(payload.get());
  ensure(msg != nullptr, "unexpected payload type");
  switch (msg->hop) {
    case CentralizedPayload::Hop::kInfo:
      ensure(coordinating(), "info hop reached a non-coordinator");
      collected_infos_.emplace(from, msg->info);
      if (collected_infos_.size() == current_view()->members.size()) {
        run_coordinator_decision();
      }
      return;
    case CentralizedPayload::Hop::kAttempt:
      handle_attempt(*msg);
      return;
    case CentralizedPayload::Hop::kAck:
      ensure(coordinating(), "ack hop reached a non-coordinator");
      acked_.insert(from);
      maybe_commit();
      return;
    case CentralizedPayload::Hop::kCommit:
      handle_commit(*msg);
      return;
  }
}

void CentralizedDvProtocol::run_coordinator_decision() {
  const ProcessSet& M = current_view()->members;
  InfoBySender infos;
  infos.reserve(collected_infos_.size());
  for (const auto& [p, info] : collected_infos_) infos.emplace_back(p, &info);

  if (config_.dynamic_participants) {
    std::vector<const ParticipantTracker*> peers;
    for (const auto& [p, info] : infos) peers.push_back(&info->participants);
    const ParticipantTracker before = state_.participants;
    state_.participants.merge_attempt_step(peers);
    if (state_.participants != before) {
      wal_.stage(StateDelta::merge_participants(state_.participants));
    }
  }

  const StepAggregates agg = aggregate_step1(infos);
  const QuorumCalculus calc =
      config_.dynamic_participants
          ? QuorumCalculus(state_.participants.admitted(),
                           state_.participants.all_participants(),
                           config_.min_quorum, config_.linear_tie_break)
          : QuorumCalculus(config_.core, config_.min_quorum,
                           config_.linear_tie_break);
  const Eligibility verdict = evaluate_eligibility(calc, agg, M);
  if (!verdict.eligible) {
    persist();
    session_active_ = false;
    notify_rejected(*current_view(), verdict.reason);
    return;
  }

  // Hop 2: the coordinator records its own attempt first, then hands
  // every member the decision.
  state_.session_number = agg.max_session + 1;
  const Session session{M, state_.session_number};
  state_.record_attempt(session, id());
  wal_.stage(StateDelta::attempt(session, /*record_limit=*/0));
  persist();
  attempted_this_session_ = true;
  notify_attempt(session);

  auto attempt = std::make_shared<CentralizedPayload>();
  attempt->hop = CentralizedPayload::Hop::kAttempt;
  attempt->session_number = state_.session_number;
  for (ProcessId member : M) {
    if (member != id()) send(member, attempt);
  }
  // The coordinator's own ack is implicit — and may already complete the
  // round (it always does in a singleton view).
  acked_.insert(id());
  maybe_commit();
}

void CentralizedDvProtocol::maybe_commit() {
  if (!session_active_ || !coordinating()) return;
  if (acked_.size() != current_view()->members.size()) return;
  // Hop 4: everyone's attempt is durable; commit.
  const SessionNumber number = state_.session_number;
  form(number);
  auto commit = std::make_shared<CentralizedPayload>();
  commit->hop = CentralizedPayload::Hop::kCommit;
  commit->session_number = number;
  for (ProcessId member : current_view()->members) {
    if (member != id()) send(member, commit);
  }
}

void CentralizedDvProtocol::handle_attempt(const CentralizedPayload& msg) {
  ensure(!coordinating(), "attempt hop reached the coordinator");
  state_.session_number = msg.session_number;
  const Session session{current_view()->members, msg.session_number};
  state_.record_attempt(session, id());
  wal_.stage(StateDelta::attempt(session, /*record_limit=*/0));
  persist();  // durable BEFORE the ack: the whole point of the hop
  attempted_this_session_ = true;
  notify_attempt(session);

  auto ack = std::make_shared<CentralizedPayload>();
  ack->hop = CentralizedPayload::Hop::kAck;
  ack->session_number = msg.session_number;
  send(coordinator_of(*current_view()), std::move(ack));
}

void CentralizedDvProtocol::handle_commit(const CentralizedPayload& msg) {
  ensure(attempted_this_session_, "commit without a recorded attempt");
  ensure(msg.session_number == state_.session_number,
         "commit session number mismatch");
  form(msg.session_number);
}

void CentralizedDvProtocol::form(SessionNumber number) {
  const Session session{current_view()->members, number};
  state_.apply_form(session);
  wal_.stage(StateDelta::form(session));
  persist();
  session_active_ = false;
  // 4 hops of latency; reported as 4 rounds for the cost comparisons.
  enter_primary(session, 4);
}

void CentralizedDvProtocol::on_crash() {
  leave_primary();
  session_active_ = false;
  collected_infos_.clear();
  acked_ = ProcessSet{};
}

void CentralizedDvProtocol::on_recover() {
  if (std::optional<ProtocolState> recovered = wal_.recover()) {
    state_ = std::move(*recovered);
  } else {
    state_ = ProtocolState::after_disk_loss(id());
    wal_.checkpoint(state_);
  }
}

}  // namespace dynvote
