// Last_Formed (paper section 5.1): for each process q, the last session
// this process formed that q was a member of.
//
// Every member of a formed session gets the same entry, so a per-member
// copy of the session (a map from q to Session) costs O(n·|S|) per
// process and O(n³) per fleet, and every info and checkpoint re-encodes
// the copies. LastFormed stores each distinct session once, in a table,
// and gives each process an index into it: O(n + Σ|S|) per process,
// summed over the sessions still referenced.
//
// The representation is canonical, so `==` is structural and two states
// holding the same mapping encode to identical bytes:
//   - the session table is strictly ascending under Session's <=>;
//   - every session in the table is referenced by some entry;
//   - entries are strictly ascending by id.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dv/session.hpp"
#include "util/codec.hpp"
#include "util/ids.hpp"
#include "util/process_set.hpp"

namespace dynvote {

class LastFormed {
 public:
  /// Last_Formed(id) is the table's session at `index`.
  struct Entry {
    ProcessId id;
    std::uint32_t index = 0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// Last_Formed(q), or nullptr when this process never formed a session
  /// containing q.
  [[nodiscard]] const Session* find(ProcessId q) const;

  /// Form / adoption step: Last_Formed(q) := s for every q in s.M.
  void assign(const Session& s);

  /// The entries of the members of `view`, with only the sessions they
  /// reference (what a dv.info sent in `view` carries).
  [[nodiscard]] LastFormed restricted_to(const ProcessSet& view) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Iteration over the entries, ascending by id; session(e) resolves one.
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }
  [[nodiscard]] const Session& session(const Entry& e) const {
    return sessions_[e.index];
  }

  /// Entry count, then (when non-zero) the session table and the
  /// (id, index) pairs. An empty Last_Formed is the single byte 0.
  void encode(Encoder& enc) const;
  /// Throws CodecError on any input that is not in canonical form.
  [[nodiscard]] static LastFormed decode(Decoder& dec);

  /// "[S0 S1 ...]{p0:0,p1:1,...}": the table once, then id -> index.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const LastFormed&, const LastFormed&) = default;

 private:
  std::vector<Session> sessions_;
  std::vector<Entry> entries_;
};

}  // namespace dynvote
