#include "dv/centralized_protocol.hpp"

#include <utility>

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

CentralizedDvProtocol::CentralizedDvProtocol(sim::Transport& transport,
                                             ProcessId id, DvConfig config)
    : ProtocolNode(transport, id),
      config_(std::move(config)),
      wal_(storage(),
           config_.registry != nullptr ? config_.registry : &metrics(),
           kStateKey, id, config_.persistence,
           ProtocolState::initial(config_.core, id)) {}

ProcessId CentralizedDvProtocol::coordinator_of(const View& view) {
  ensure(!view.members.empty(), "empty view has no coordinator");
  return *view.members.begin();
}

bool CentralizedDvProtocol::coordinating() const {
  return current_view() && coordinator_of(*current_view()) == id();
}

void CentralizedDvProtocol::on_view(const View& view) {
  leave_primary();
  session_active_ = true;
  collected_infos_.clear();
  acked_ = ProcessSet{};
  attempted_this_session_ = false;
  notify_view_installed(view);

  // Hop 1: everyone (the coordinator included, via loopback) reports its
  // state to the coordinator.
  const ProtocolState& state = wal_.state();
  auto msg = std::make_shared<CentralizedPayload>();
  msg->hop = CentralizedPayload::Hop::kInfo;
  msg->info.session_number = state.session_number;
  msg->info.has_history = state.has_history;
  msg->info.last_primary = state.last_primary;
  for (const auto& a : state.ambiguous) msg->info.ambiguous.push_back(a.session);
  if (config_.dynamic_participants) msg->info.participants = state.participants;
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

  merge_participants(config_, infos, wal_);
  const StepAggregates agg = aggregate_step1(infos);
  Eligibility verdict =
      evaluate_eligibility(make_calculus(config_, wal_.state()), agg, M);
  if (!verdict.eligible) {
    wal_.commit();
    session_active_ = false;
    notify_rejected(*current_view(), std::move(verdict.reason));
    return;
  }

  // Hop 2: the coordinator records its own attempt first, then hands
  // every member the decision.
  const Session session{M, agg.max_session + 1};
  persist_attempt(session);

  auto attempt = std::make_shared<CentralizedPayload>();
  attempt->hop = CentralizedPayload::Hop::kAttempt;
  attempt->session_number = session.number;
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
  const SessionNumber number = wal_.state().session_number;
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
  // Durable BEFORE the ack: the whole point of the hop.
  persist_attempt(Session{current_view()->members, msg.session_number});

  auto ack = std::make_shared<CentralizedPayload>();
  ack->hop = CentralizedPayload::Hop::kAck;
  ack->session_number = msg.session_number;
  send(coordinator_of(*current_view()), std::move(ack));
}

void CentralizedDvProtocol::handle_commit(const CentralizedPayload& msg) {
  ensure(attempted_this_session_, "commit without a recorded attempt");
  ensure(msg.session_number == wal_.state().session_number,
         "commit session number mismatch");
  form(msg.session_number);
}

void CentralizedDvProtocol::persist_attempt(const Session& session) {
  wal_.apply(StateDelta::attempt(session, /*record_limit=*/0));
  wal_.commit();
  attempted_this_session_ = true;
  notify_attempt(session);
}

void CentralizedDvProtocol::form(SessionNumber number) {
  const Session session{current_view()->members, number};
  wal_.apply(StateDelta::form(session));
  wal_.commit();
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

void CentralizedDvProtocol::on_recover() { wal_.recover(); }

}  // namespace dynvote
