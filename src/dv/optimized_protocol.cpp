#include "dv/optimized_protocol.hpp"

#include <algorithm>
#include <set>

#include "util/ensure.hpp"

namespace dynvote {

namespace {

bool contains_session(const std::vector<Session>& list, const Session& s) {
  return std::find(list.begin(), list.end(), s) != list.end();
}

}  // namespace

void OptimizedDvProtocol::pre_decision_update(const InfoBySender& infos) {
  // ---- Learning rules (paper section 5.2) --------------------------------
  std::set<SessionNumber> formed_by_nobody;
  for (const auto& [q, info] : infos) {
    if (q == id()) continue;
    // A peer that lost its disk can no longer truthfully assert "I did
    // not form S"; skip all negative inference from it. (Positive
    // Last_Formed entries it cannot have either.)
    if (!info->has_history) continue;

    const Session* formed = info->last_formed.find(id());

    for (AmbiguousSession& amb : state_.ambiguous) {
      if (!amb.session.members.contains(q)) continue;
      if (formed != nullptr && formed->number == amb.session.number) {
        // Last_Formed_q(p).N = S.N  =>  q formed S.
        ensure(formed->members == amb.session.members,
               "formed session number collision (Lemma 10 violated)");
        if (amb.knowledge_about(q) != FormedKnowledge::kFormed) {
          amb.set_knowledge(q, FormedKnowledge::kFormed);
          wal_.stage(StateDelta::learned(amb.session.number, q,
                                         FormedKnowledge::kFormed));
        }
      } else if (formed == nullptr || formed->number < amb.session.number) {
        // Last_Formed_q(p).N < S.N  =>  q did not form S. (No entry at
        // all means q never formed any session containing us.)
        if (amb.knowledge_about(q) != FormedKnowledge::kNotFormed) {
          amb.set_knowledge(q, FormedKnowledge::kNotFormed);
          wal_.stage(StateDelta::learned(amb.session.number, q,
                                         FormedKnowledge::kNotFormed));
        }
      }
      // Last_Formed_q(p).N > S.N gives no direct verdict on S here; the
      // later formed session is itself one of our ambiguous attempts
      // (paper Lemma 2) and resolves S by adoption below.

      // Second learning rule: q's Last_Primary predates S and q does not
      // hold S ambiguous  =>  S was formed by no member at all (either q
      // never attempted S — then nobody can have formed it — or q
      // already resolved it as unformed).
      const SessionNumber q_lp = info->last_primary
                                     ? info->last_primary->number
                                     : kNoSessionNumber;
      const bool q_lp_predates =
          q_lp < amb.session.number ||
          (q_lp == amb.session.number && info->last_primary &&
           info->last_primary->members != amb.session.members);
      if (q_lp_predates && !contains_session(info->ambiguous, amb.session)) {
        formed_by_nobody.insert(amb.session.number);
      }
    }
  }

  // ---- Resolution rules (paper figure 2) -----------------------------------
  // Adoption: the highest-numbered attempt known formed by some member
  // becomes Last_Primary ("the other members behave as if they also
  // formed this session").
  const AmbiguousSession* to_adopt = nullptr;
  for (const AmbiguousSession& amb : state_.ambiguous) {
    if (amb.known_formed_by_someone()) {
      ensure(!formed_by_nobody.contains(amb.session.number),
             "session both formed and formed-by-nobody");
      if (!to_adopt || amb.session.number > to_adopt->session.number) {
        to_adopt = &amb;
      }
    }
  }
  if (to_adopt) {
    const Session adopted = to_adopt->session;  // copy before mutating list
    // Close the lifetime span of every record the adoption resolves: the
    // adopted session itself plus everything it supersedes (adopt_formed
    // erases all records with number <= adopted.number).
    for (const AmbiguousSession& amb : state_.ambiguous) {
      if (amb.session.number > adopted.number) continue;
      if (amb.session.number == adopted.number) {
        record_ambiguity_resolution(obs::TraceEventKind::kAmbiguityAdopted,
                                    amb.session, "fig2-adoption");
      } else {
        record_ambiguity_resolution(obs::TraceEventKind::kAmbiguityResolved,
                                    amb.session, "fig2-adoption-supersedes");
      }
    }
    state_.adopt_formed(adopted);
    wal_.stage(StateDelta::adopt(adopted));
    ++gc_adoptions_;
  }

  // Deletion: sessions formed by nobody are no constraint on anything.
  const std::size_t before = state_.ambiguous.size();
  std::vector<SessionNumber> deleted;
  std::erase_if(state_.ambiguous, [&](const AmbiguousSession& amb) {
    if (amb.known_unformed_by_all()) {
      record_ambiguity_resolution(obs::TraceEventKind::kAmbiguityResolved,
                                  amb.session, "5.2-rule1-unformed-by-all");
      deleted.push_back(amb.session.number);
      return true;
    }
    if (formed_by_nobody.contains(amb.session.number)) {
      record_ambiguity_resolution(obs::TraceEventKind::kAmbiguityResolved,
                                  amb.session, "5.2-rule2-formed-by-nobody");
      deleted.push_back(amb.session.number);
      return true;
    }
    return false;
  });
  if (!deleted.empty()) {
    wal_.stage(StateDelta::erase_ambiguous(std::move(deleted)));
  }
  gc_deletions_ += before - state_.ambiguous.size();
  if (to_adopt != nullptr || before != state_.ambiguous.size()) {
    record_ambiguity_level();
  }
}

}  // namespace dynvote
