// Reference Last_Formed for the differential tests: the per-member map
// that dv::LastFormed replaced. Every member of a formed session holds
// its own copy of the session, O(n·|S|) per process, and kept only to
// check that the shared-table representation gives the same mapping.
#pragma once

#include <map>

#include "dv/session.hpp"
#include "util/process_set.hpp"

namespace dynvote::reference {

using LastFormedMap = std::map<ProcessId, Session>;

/// The old form / adoption step: Last_Formed(q) := s for every q in s.M.
inline void assign(LastFormedMap& map, const Session& s) {
  for (ProcessId q : s.members) map[q] = s;
}

/// The old make_info filter: the entries of the view's members.
inline LastFormedMap restricted_to(const LastFormedMap& map,
                                   const ProcessSet& view) {
  LastFormedMap out;
  for (const auto& [q, s] : map) {
    if (view.contains(q)) out.emplace(q, s);
  }
  return out;
}

}  // namespace dynvote::reference
