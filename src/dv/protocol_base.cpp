#include "dv/protocol_base.hpp"

#include <utility>

#include "util/ensure.hpp"

namespace dynvote {

SessionProtocolBase::SessionProtocolBase(sim::Transport& transport,
                                         ProcessId id, int max_phases)
    : ProtocolNode(transport, id), max_phases_(max_phases) {
  ensure(max_phases_ >= 0, "negative phase count");
}

void SessionProtocolBase::on_view(const View& view) {
  // "Set Is_Primary to FALSE" — step 1 of every session (paper fig. 1).
  leave_primary();
  session_active_ = true;
  current_phase_ = -1;
  rounds_used_ = 0;
  collected_.resize(static_cast<std::size_t>(max_phases_));
  for (PhaseSlots& slots : collected_) {
    slots.messages.clear();
    for (ProcessId member : view.members) {
      slots.messages.emplace_back(member, nullptr);
    }
    slots.filled = 0;
  }
  notify_view_installed(view);
  begin_session(view);
}

void SessionProtocolBase::on_message(ProcessId from,
                                     sim::PayloadPtr payload) {
  if (!session_active_) return;  // session already ended within this view
  ensure(payload->phased(), "non-phased payload delivered to protocol");
  const auto* phased = static_cast<const PhasedPayload*>(payload.get());
  const int phase = phased->phase();
  ensure(phase >= 0 && phase < max_phases_, "phase out of range");
  const ProcessSet& members = current_view()->members;
  ensure(members.contains(from), "message from non-member");
  // FIFO channels + view gating mean no duplicates; a phase ahead of ours
  // simply waits in its bucket.
  PhaseSlots& slots = collected_[static_cast<std::size_t>(phase)];
  auto& slot = slots.messages[members.index_of(from)].second;
  ensure(slot == nullptr, "duplicate phase message");
  // Aliasing move: the slot takes over the envelope's reference.
  slot = std::shared_ptr<const PhasedPayload>(std::move(payload), phased);
  ++slots.filled;
  try_complete_phase();
}

void SessionProtocolBase::try_complete_phase() {
  if (in_completion_) return;  // re-entrancy guard: loop below handles it
  in_completion_ = true;
  while (session_active_ && current_phase_ >= 0 &&
         current_phase_ < max_phases_ &&
         collected_[static_cast<std::size_t>(current_phase_)].filled ==
             current_view()->members.size()) {
    const int phase = current_phase_;
    on_phase_complete(phase,
                      collected_[static_cast<std::size_t>(phase)].messages);
    if (current_phase_ == phase) break;  // derived didn't advance: done
  }
  in_completion_ = false;
}

void SessionProtocolBase::send_phase(
    int phase, std::shared_ptr<const PhasedPayload> payload) {
  ensure(session_active_, "send_phase outside an active session");
  ensure(payload && payload->phase() == phase, "payload/phase mismatch");
  ensure(phase == current_phase_ + 1, "phases must advance one at a time");
  current_phase_ = phase;
  ++rounds_used_;
  broadcast(std::move(payload));
  try_complete_phase();
}

void SessionProtocolBase::mark_primary(const Session& session) {
  ensure(session_active_, "mark_primary outside an active session");
  session_active_ = false;
  enter_primary(session, rounds_used_);
}

void SessionProtocolBase::abort_session(std::string reason) {
  ensure(session_active_, "abort_session outside an active session");
  session_active_ = false;
  notify_rejected(session_view(), std::move(reason));
}

const View& SessionProtocolBase::session_view() const {
  ensure(current_view().has_value(), "no session view");
  return *current_view();
}

void SessionProtocolBase::on_crash() {
  leave_primary();
  session_active_ = false;
  collected_.clear();
  handle_crash();
}

void SessionProtocolBase::on_recover() { handle_recover(); }

}  // namespace dynvote
