// Membership views.
//
// A view is what the membership module reports to a process: "these are
// the processes currently assumed connected" (paper section 3.1). Views
// carry a globally increasing id so a process can discard traffic from
// views it has already left behind.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote {

struct View {
  ViewId id;
  ProcessSet members;

  friend bool operator==(const View&, const View&) = default;
};

[[nodiscard]] std::string to_string(const View& view);

/// The view-announcement rule of the membership service, shared by the
/// DES oracle (membership/membership_oracle.hpp) and the pool runtime's
/// fleet (runtime/fleet.hpp), so both backends derive the same view
/// sequence from the same topology script. It owns the view-id counter
/// (ids start at 1) and each process's latest announced view; how and
/// when a view reaches its members is the caller's business.
class ViewAnnouncer {
 public:
  /// Announces View{next id, component} for every component, in the
  /// given order, of which some member's latest view has a different
  /// membership (or no view yet); untouched components get nothing.
  /// Records each returned view as its members' latest.
  std::vector<View> announce(const std::vector<ProcessSet>& live_components);

  /// View{next id, members} for any membership (announce() uses it; tests
  /// use it for inaccurate membership reports), recorded as its members'
  /// latest.
  View inject(const ProcessSet& members);

  /// The latest view announced to `p`; null before its first. Kept
  /// across crashes: a recovered process's fresh singleton differs from
  /// it, which is what announces the recovery view.
  [[nodiscard]] const View* latest(ProcessId p) const;

 private:
  std::uint64_t next_view_id_ = 1;
  std::map<ProcessId, View> latest_;
};

}  // namespace dynvote
