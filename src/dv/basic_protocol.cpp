#include "dv/basic_protocol.hpp"

#include <algorithm>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>

#include "obs/trace.hpp"
#include "util/ensure.hpp"

namespace dynvote {

namespace {

constexpr const char* kStateKey = "dv.state";

}  // namespace

InfoBySender as_infos(const SessionProtocolBase::PhaseMessages& messages) {
  InfoBySender infos;
  infos.reserve(messages.size());
  for (const auto& [from, payload] : messages) {
    const PhasedPayload& message = *payload;
    ensure(typeid(message) == typeid(InfoPayload),
           "phase-0 message is not an InfoPayload");
    infos.emplace_back(from, static_cast<const InfoPayload*>(&message));
  }
  return infos;
}

StepAggregates aggregate_step1(const InfoBySender& infos) {
  StepAggregates agg;
  agg.max_session = kNoSessionNumber;
  const Session* max_primary = nullptr;
  for (const auto& [from, info] : infos) {
    agg.max_session = std::max(agg.max_session, info->session_number);
    if (info->last_primary) {
      // Pick the max-numbered last primary. Formed sessions have unique
      // numbers (paper Lemma 10), but a deliberately broken baseline can
      // report two different sessions with one number; break the tie on
      // membership so all members still agree.
      const Session& primary = *info->last_primary;
      if (max_primary == nullptr || primary.number > max_primary->number ||
          (primary.number == max_primary->number &&
           primary.members < max_primary->members)) {
        max_primary = &primary;
      }
    }
  }
  if (max_primary != nullptr) agg.max_primary = *max_primary;
  const SessionNumber floor =
      max_primary != nullptr ? max_primary->number : kNoSessionNumber;
  // Sort pointers into the infos, then copy each distinct attempt once,
  // in ascending Session order.
  std::vector<const Session*> attempts;
  for (const auto& [from, info] : infos) {
    for (const Session& attempt : info->ambiguous) {
      if (attempt.number > floor) attempts.push_back(&attempt);
    }
  }
  std::sort(attempts.begin(), attempts.end(),
            [](const Session* a, const Session* b) { return *a < *b; });
  for (const Session* attempt : attempts) {
    if (agg.max_ambiguous.empty() || agg.max_ambiguous.back() != *attempt) {
      agg.max_ambiguous.push_back(*attempt);
    }
  }
  return agg;
}

namespace {

/// `prefix` and then `session`'s text, formatted once into one buffer.
std::string citing(std::string_view prefix, const Session& session) {
  std::string reason;
  // Per member "p", at most 7 digits (ids are below 2^20) and a comma;
  // then the brackets and the session number.
  reason.reserve(prefix.size() + 9 * session.members.size() + 24);
  reason += prefix;
  session.append_to(reason);
  return reason;
}

}  // namespace

Eligibility evaluate_eligibility(const QuorumCalculus& calc,
                                 const StepAggregates& agg,
                                 const ProcessSet& M) {
  if (!calc.meets_min_quorum(M)) {
    return {false, "only " + std::to_string(M.intersection_size(calc.admitted())) +
                       " of W present, Min_Quorum=" +
                       std::to_string(calc.min_quorum())};
  }
  // The unconditional clause (|M ∩ WA| > |WA| − Min_Quorum) is evaluated
  // inside sub_quorum for each recorded session; Sub_Quorum(∞, M) stays
  // FALSE by the paper's definition, so a group in which nobody knows any
  // primary can never form one, however large.
  if (!agg.max_primary) {
    return {false, "Max_Primary = (∞,-1): no member knows a primary"};
  }
  if (!calc.sub_quorum(agg.max_primary->members, M)) {
    return {false,
            citing("not a sub-quorum of Max_Primary ", *agg.max_primary)};
  }
  for (const Session& attempt : agg.max_ambiguous) {
    if (!calc.sub_quorum(attempt.members, M)) {
      return {false, citing("not a sub-quorum of ambiguous attempt ", attempt)};
    }
  }
  return {true, {}};
}

void merge_participants(const DvConfig& config, const InfoBySender& infos,
                        WalPersistence& wal) {
  if (!config.dynamic_participants) return;
  std::vector<const ParticipantTracker*> peers;
  peers.reserve(infos.size());
  for (const auto& [from, info] : infos) peers.push_back(&info->participants);
  ParticipantTracker merged = wal.state().participants;
  merged.merge_attempt_step(peers);
  if (merged != wal.state().participants) {
    wal.apply(StateDelta::merge_participants(std::move(merged)));
  }
}

QuorumCalculus make_calculus(const DvConfig& config,
                             const ProtocolState& state) {
  if (config.dynamic_participants) {
    return QuorumCalculus(state.participants.admitted(),
                          state.participants.all_participants(),
                          config.min_quorum, config.linear_tie_break);
  }
  return QuorumCalculus(config.core, config.min_quorum,
                        config.linear_tie_break);
}

BasicDvProtocol::BasicDvProtocol(sim::Transport& transport, ProcessId id,
                                 DvConfig config)
    : BasicDvProtocol(transport, id, std::move(config), /*max_phases=*/2) {}

BasicDvProtocol::BasicDvProtocol(sim::Transport& transport, ProcessId id,
                                 DvConfig config, int max_phases)
    : SessionProtocolBase(transport, id, max_phases),
      config_(std::move(config)),
      wal_(storage(),
           config_.registry != nullptr ? config_.registry : &metrics(),
           kStateKey, id, config_.persistence,
           ProtocolState::initial(config_.core, id)) {}

void BasicDvProtocol::handle_recover() {
  ProtocolState lost;
  if (wal_.recover(&lost)) return;
  // The disk was destroyed (paper footnote 4) and the process came back
  // with Last_Primary = (∞,-1) and no trustworthy history. The ambiguous
  // records it held died with the disk — close their lifetime spans.
  for (const AmbiguousSession& amb : lost.ambiguous) {
    record_ambiguity_resolution(obs::TraceEventKind::kAmbiguityResolved,
                                amb.session, "disk-loss");
  }
  record_ambiguity_level();
}

void BasicDvProtocol::begin_session(const View& view) {
  send_phase(0, make_info(view));
}

std::shared_ptr<InfoPayload> BasicDvProtocol::make_info(
    const View& view) const {
  const ProtocolState& state = wal_.state();
  auto info = std::make_shared<InfoPayload>();
  info->session_number = state.session_number;
  info->has_history = state.has_history;
  info->last_primary = state.last_primary;
  info->ambiguous.reserve(state.ambiguous.size());
  for (const auto& a : state.ambiguous) info->ambiguous.push_back(a.session);
  if (sends_last_formed()) {
    // Only the view's members receive this info, and each reads only its
    // own entry (see InfoPayload::last_formed).
    info->last_formed = state.last_formed.restricted_to(view.members);
  }
  if (config_.dynamic_participants) info->participants = state.participants;
  return info;
}

void BasicDvProtocol::on_phase_complete(int phase,
                                        const PhaseMessages& messages) {
  if (phase == 0) {
    if (run_decision(messages)) record_and_send_attempt(1);
  } else {
    run_form_step(messages);
  }
}

Eligibility BasicDvProtocol::decide(const QuorumCalculus& calc,
                                    const StepAggregates& agg,
                                    const ProcessSet& M) const {
  return evaluate_eligibility(calc, agg, M);
}

Session BasicDvProtocol::make_formed_record(const Session& actual) const {
  return actual;
}

bool BasicDvProtocol::run_decision(const PhaseMessages& messages) {
  const ProcessSet& M = session_view().members;
  const InfoBySender infos = as_infos(messages);

  // Optimized protocol: learning + resolution (garbage collection).
  pre_decision_update(infos);
  merge_participants(config_, infos, wal_);

  pending_agg_ = aggregate_step1(infos);
  Eligibility verdict =
      decide(make_calculus(config_, wal_.state()), pending_agg_, M);
  if (!verdict.eligible) {
    wal_.commit();  // learning / participant merges must still survive
    abort_session(std::move(verdict.reason));
    return false;
  }
  return true;
}

void BasicDvProtocol::record_and_send_attempt(int phase) {
  const Session session{session_view().members, pending_agg_.max_session + 1};
  // The limit's deliberately unsound truncation (see
  // ambiguous_record_limit()) is part of the delta.
  wal_.apply(StateDelta::attempt(session, ambiguous_record_limit()));
  record_ambiguity_level();
  wal_.commit();
  notify_attempt(session);

  auto attempt = std::make_shared<AttemptPayload>(phase);
  attempt->session_number = session.number;
  send_phase(phase, std::move(attempt));
}

void BasicDvProtocol::run_form_step(const PhaseMessages& messages) {
  // Sanity: all members attempted the same session (paper Lemma 4).
  for (const auto& [from, payload] : messages) {
    const PhasedPayload& message = *payload;
    ensure(typeid(message) == typeid(AttemptPayload),
           "form-step message is not an AttemptPayload");
    ensure(static_cast<const AttemptPayload&>(message).session_number ==
               state().session_number,
           "attempt session number mismatch (Lemma 4 violated)");
  }
  const Session actual{session_view().members, state().session_number};
  // The recorded session can differ from the view (the hybrid baseline
  // pins the membership); the delta must carry what was recorded.
  wal_.apply(StateDelta::form(make_formed_record(actual)));
  record_ambiguity_level();
  wal_.commit();
  mark_primary(actual);
}

void BasicDvProtocol::record_ambiguity_level() {
  obs::TraceEvent event;
  event.time = now();
  event.kind = obs::TraceEventKind::kAmbiguityRecord;
  event.a = id();
  event.value = state().ambiguous.size();
  event.lamport = lamport_tick();
  event.cause = session_cause_eid();
  trace().record(std::move(event));
}

void BasicDvProtocol::record_ambiguity_resolution(obs::TraceEventKind kind,
                                                  const Session& session,
                                                  std::string rule) {
  obs::TraceEvent event;
  event.time = now();
  event.kind = kind;
  event.a = id();
  event.number = session.number;
  event.members = session.members;
  event.detail = std::move(rule);
  event.lamport = lamport_tick();
  event.cause = session_cause_eid();
  trace().record(std::move(event));
}

}  // namespace dynvote
