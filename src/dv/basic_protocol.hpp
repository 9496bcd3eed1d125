// The basic dynamic-voting protocol (paper section 4, figure 1).
//
// One session per membership view, two communication rounds:
//
//   step 1  broadcast Session_Number, Last_Primary, Ambiguous_Sessions;
//   step 2  (attempt) on receiving step-1 from ALL members: compute
//           Max_Session / Max_Primary / Max_Ambiguous_Sessions; if the
//           view is a Sub_Quorum of Max_Primary and of every ambiguous
//           attempt since, record the attempt durably and broadcast it;
//           otherwise abort the session;
//   step 3  (form) on receiving attempt from ALL members: the view is the
//           new primary component.
//
// The ambiguous-session record is the paper's key idea: if p forms S,
// every member of S recorded S as an attempt first, so any member that
// detached before forming will still hold S against future quorums.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dv/protocol_base.hpp"
#include "dv/state.hpp"
#include "dv/wal.hpp"
#include "quorum/sub_quorum.hpp"

namespace dynvote {

/// Configuration shared by the dynamic-voting protocol family.
struct DvConfig {
  /// The fixed core group W0 (paper section 3).
  ProcessSet core;

  /// Min_Quorum: minimum number of admitted participants in any quorum
  /// (paper section 4.1). 1 = plain dynamic linear voting.
  std::size_t min_quorum = 1;

  /// Enables the dynamically-changing quorum requirements of paper
  /// section 6 (the W / A participant sets).
  bool dynamic_participants = false;

  /// Dynamic *linear* voting's tie-break on equal halves (paper 4.1,
  /// from [12]). Disabling it degrades to plain dynamic voting; the
  /// ablation bench quantifies the availability cost.
  bool linear_tie_break = true;

  /// How protocol state reaches stable storage (dv/wal.hpp): delta WAL
  /// with checkpoint compaction by default, full snapshot per persist as
  /// the legacy fallback.
  PersistenceOptions persistence;

  /// Where this group's instruments land: the nodes' dv.storage.* WAL
  /// counters and the group's MetricsObserver (harness/events.hpp).
  /// nullptr = the simulator's fleet-global registry; a sharded fleet
  /// points every group at its MetricsHub child registry so per-shard
  /// health is attributable (borrowed; must outlive the node).
  obs::MetricsRegistry* registry = nullptr;
};

/// The values computed at the start of the attempt step (paper 4.3).
struct StepAggregates {
  SessionNumber max_session = 0;
  std::optional<Session> max_primary;
  /// Attempts with number > Max_Primary.N, union over all members,
  /// deduplicated by (membership, number).
  std::vector<Session> max_ambiguous;
};

/// Step-1 messages as (sender, info), in ascending sender order. The
/// pointers borrow the caller's payloads (the phase slots); nothing is
/// copied.
using InfoBySender = std::vector<std::pair<ProcessId, const InfoPayload*>>;

/// Computes Max_Session, Max_Primary and Max_Ambiguous_Sessions from the
/// step-1 messages. Deterministic: every member computes identical
/// aggregates from the identical message set.
[[nodiscard]] StepAggregates aggregate_step1(const InfoBySender& infos);

struct Eligibility {
  bool eligible = false;
  /// Why the view was rejected: human-readable, carried by traces and
  /// reject events. Empty when the verdict is eligible.
  std::string reason;
};

/// The attempt-step decision (paper figure 1 step 2, extended with the
/// section-6 unconditional clause): is membership M an eligible quorum?
[[nodiscard]] Eligibility evaluate_eligibility(const QuorumCalculus& calc,
                                               const StepAggregates& agg,
                                               const ProcessSet& M);

/// Section 6's attempt-step merge of the W / A participant sets, before
/// the quorum requirement is evaluated. All members merge the same
/// messages, so all use the same calculus (paper Lemma 13). Applies the
/// merged sets to `wal` as one delta when they changed; does nothing
/// unless `config` enables dynamic participants.
void merge_participants(const DvConfig& config, const InfoBySender& infos,
                        WalPersistence& wal);

/// The quorum calculus of an attempt step: the (merged) W / A sets of
/// `state` with dynamic participants, else the fixed core W0.
[[nodiscard]] QuorumCalculus make_calculus(const DvConfig& config,
                                           const ProtocolState& state);

class BasicDvProtocol : public SessionProtocolBase {
 public:
  BasicDvProtocol(sim::Transport& transport, ProcessId id, DvConfig config);

  [[nodiscard]] const ProtocolState& state() const noexcept {
    return wal_.state();
  }
  [[nodiscard]] const DvConfig& config() const noexcept { return config_; }

 protected:
  /// For subclasses with extra rounds (the three-phase-recovery
  /// baseline): `max_phases` broadcast rounds, form on the last.
  BasicDvProtocol(sim::Transport& transport, ProcessId id, DvConfig config,
                  int max_phases);

  void begin_session(const View& view) override;
  void on_phase_complete(int phase, const PhaseMessages& messages) override;
  void handle_recover() override;

  /// The step-1 message this process sends in `view`.
  [[nodiscard]] std::shared_ptr<InfoPayload> make_info(const View& view) const;

  /// Optimized protocol: include Last_Formed in step-1 messages.
  [[nodiscard]] virtual bool sends_last_formed() const { return false; }

  /// Cap on how many ambiguous sessions are *kept* (0 = unlimited).
  /// The paper proves any finite cap breaks consistency (section 4.6);
  /// the LastAttemptOnly baseline returns 1 to reproduce exactly that.
  [[nodiscard]] virtual std::size_t ambiguous_record_limit() const {
    return 0;
  }

  /// Optimized protocol: learning + resolution rules, applied to own
  /// state before the aggregates are computed (paper figure 3 step 2).
  virtual void pre_decision_update(const InfoBySender& /*infos*/) {}

  /// The eligibility decision; baselines with different quorum rules
  /// (blocking, hybrid) override this.
  [[nodiscard]] virtual Eligibility decide(const QuorumCalculus& calc,
                                           const StepAggregates& agg,
                                           const ProcessSet& M) const;

  /// How the formed session is recorded in Last_Primary. The hybrid
  /// baseline pins the recorded quorum at a floor of three members.
  [[nodiscard]] virtual Session make_formed_record(const Session& actual) const;

  // -- step building blocks, shared with multi-round baselines --------------

  /// Runs the attempt-step computation (learning, participant merge,
  /// aggregates, decision). On rejection, persists and aborts the
  /// session. Stores the aggregates for record_and_send_attempt.
  [[nodiscard]] bool run_decision(const PhaseMessages& messages);

  /// Records the attempt durably and broadcasts it as phase `phase`.
  void record_and_send_attempt(int phase);

  /// The form step: validates attempt messages, adopts the new primary.
  void run_form_step(const PhaseMessages& messages);

  /// The aggregates computed by the last run_decision of this session —
  /// identical at every member (they fold the same message set).
  [[nodiscard]] const StepAggregates& pending_aggregates() const noexcept {
    return pending_agg_;
  }

  /// Records the current |Ambiguous_Sessions| in the trace. Called
  /// whenever the record changes (attempt recorded, session formed,
  /// garbage collection, disk loss); the checker derives each process's
  /// Theorem-1 high-water from these events and the metrics bridge the
  /// "dv.ambiguous_recorded" gauge and "dv.ambiguity_ticks".
  void record_ambiguity_level();

  /// Records the end of one ambiguous record's lifetime: `kind` is
  /// kAmbiguityResolved (deleted) or kAmbiguityAdopted, `rule` names the
  /// §5 rule that fired (see docs/OBSERVABILITY.md). The span builder
  /// closes the record's lifetime span at this event.
  void record_ambiguity_resolution(obs::TraceEventKind kind,
                                   const Session& session, std::string rule);

  DvConfig config_;
  /// The protocol state and its persistence. A step changes the state
  /// only by wal_.apply and makes it durable with wal_.commit() before
  /// every send that exposes the change (paper section 4.4); a commit
  /// with nothing applied writes nothing.
  WalPersistence wal_;

 private:
  StepAggregates pending_agg_;
};

/// Downcasts a phase bucket to InfoPayloads (phase 0 of the dv family).
[[nodiscard]] InfoBySender as_infos(
    const SessionProtocolBase::PhaseMessages& messages);

}  // namespace dynvote
