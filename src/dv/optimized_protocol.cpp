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
  // A view of the live state: every wal_.apply below changes what it shows.
  const ProtocolState& state = wal_.state();

  // ---- Learning rules (paper section 5.2) --------------------------------
  std::set<SessionNumber> formed_by_nobody;
  for (const auto& [q, info] : infos) {
    if (q == id()) continue;
    // A peer that lost its disk can no longer truthfully assert "I did
    // not form S"; skip all negative inference from it. (Positive
    // Last_Formed entries it cannot have either.)
    if (!info->has_history) continue;

    const Session* formed = info->last_formed.find(id());

    // A knowledge delta rewrites one entry of `amb` in place, so the
    // walk over the list stays valid.
    for (const AmbiguousSession& amb : state.ambiguous) {
      if (!amb.session.members.contains(q)) continue;
      if (formed != nullptr && formed->number == amb.session.number) {
        // Last_Formed_q(p).N = S.N  =>  q formed S.
        ensure(formed->members == amb.session.members,
               "formed session number collision (Lemma 10 violated)");
        if (amb.knowledge_about(q) != FormedKnowledge::kFormed) {
          wal_.apply(StateDelta::learned(amb.session.number, q,
                                         FormedKnowledge::kFormed));
        }
      } else if (formed == nullptr || formed->number < amb.session.number) {
        // Last_Formed_q(p).N < S.N  =>  q did not form S. (No entry at
        // all means q never formed any session containing us.)
        if (amb.knowledge_about(q) != FormedKnowledge::kNotFormed) {
          wal_.apply(StateDelta::learned(amb.session.number, q,
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
  for (const AmbiguousSession& amb : state.ambiguous) {
    if (amb.known_formed_by_someone()) {
      ensure(!formed_by_nobody.contains(amb.session.number),
             "session both formed and formed-by-nobody");
      if (!to_adopt || amb.session.number > to_adopt->session.number) {
        to_adopt = &amb;
      }
    }
  }
  const bool adopting = to_adopt != nullptr;
  if (adopting) {
    // Close the lifetime span of every record the adoption resolves: the
    // adopted session itself plus everything it supersedes (adopt_formed
    // erases all records with number <= the adopted one).
    const SessionNumber adopted = to_adopt->session.number;
    for (const AmbiguousSession& amb : state.ambiguous) {
      if (amb.session.number > adopted) continue;
      if (amb.session.number == adopted) {
        record_ambiguity_resolution(obs::TraceEventKind::kAmbiguityAdopted,
                                    amb.session, "fig2-adoption");
      } else {
        record_ambiguity_resolution(obs::TraceEventKind::kAmbiguityResolved,
                                    amb.session, "fig2-adoption-supersedes");
      }
    }
    // The delta takes its copy of the session before the adoption erases
    // the record.
    wal_.apply(StateDelta::adopt(to_adopt->session));
  }

  // Deletion: sessions formed by nobody are no constraint on anything.
  std::vector<SessionNumber> deleted;
  for (const AmbiguousSession& amb : state.ambiguous) {
    const char* rule = nullptr;
    if (amb.known_unformed_by_all()) {
      rule = "5.2-rule1-unformed-by-all";
    } else if (formed_by_nobody.contains(amb.session.number)) {
      rule = "5.2-rule2-formed-by-nobody";
    } else {
      continue;
    }
    record_ambiguity_resolution(obs::TraceEventKind::kAmbiguityResolved,
                                amb.session, rule);
    deleted.push_back(amb.session.number);
  }
  const bool deleting = !deleted.empty();
  if (deleting) wal_.apply(StateDelta::erase_ambiguous(std::move(deleted)));
  if (adopting || deleting) record_ambiguity_level();
}

}  // namespace dynvote
