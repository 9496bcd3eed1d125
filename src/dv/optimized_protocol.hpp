// The optimized dynamic-voting protocol (paper section 5, figures 2-3).
//
// Extends the basic protocol with local garbage collection of ambiguous
// sessions. In step 1 each process additionally gossips its Last_Formed
// array; in step 2, before deciding, it applies:
//
//  learning rules (5.2) — from Last_Formed_q(p) it learns, for each of
//  its recorded ambiguous sessions S with q ∈ S.M, whether q formed S;
//  and from q's Last_Primary / Ambiguous_Sessions it can learn that S
//  was formed by nobody at all;
//
//  resolution rules (figure 2) — a session learned formed by someone is
//  adopted as Last_Primary (superseding older ambiguity); a session
//  learned formed by nobody is deleted.
//
// The effect (paper Theorem 1): at most n − Min_Quorum + 1 ambiguous
// sessions are ever recorded concurrently, versus 2^⌊n/2⌋ for the basic
// protocol (paper section 4.7) — reproduced by experiment E3.
#pragma once

#include "dv/basic_protocol.hpp"

namespace dynvote {

class OptimizedDvProtocol : public BasicDvProtocol {
 public:
  using BasicDvProtocol::BasicDvProtocol;

 protected:
  [[nodiscard]] bool sends_last_formed() const override { return true; }
  /// Traces each record it resolves as it goes: a §5.2 deletion is a
  /// kAmbiguityResolved event whose rule starts with "5.2-", an adoption
  /// a kAmbiguityAdopted event (the records it supersedes are
  /// kAmbiguityResolved with rule "fig2-adoption-supersedes").
  void pre_decision_update(const InfoBySender& infos) override;
};

}  // namespace dynvote
