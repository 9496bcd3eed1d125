// The linear order L used by dynamic *linear* voting (paper section 4.1).
//
// Dynamic linear voting breaks ties between two halves of a quorum by
// giving the half containing the highest-ranked member precedence. The
// paper only requires some total order over an infinite name space; we
// use the natural order on ProcessId (lexicographic order over an
// unbounded integer namespace).
#pragma once

#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote {

/// True iff T wins the tie for S's succession: there exists p in T ∩ S
/// with L(p) > L(q) for all q in S \ T. Because ranks follow ProcessId
/// order, this holds exactly when the maximum of S lies in T.
///
/// Precondition is NOT required that |T ∩ S| == |S|/2; callers check the
/// exact-half condition separately.
[[nodiscard]] bool tie_break_favors(const ProcessSet& S, const ProcessSet& T);

}  // namespace dynvote
