#include "dv/last_formed.hpp"

#include <algorithm>
#include <limits>

namespace dynvote {

namespace {

constexpr std::uint32_t kUnreferenced =
    std::numeric_limits<std::uint32_t>::max();

bool id_less(const LastFormed::Entry& e, ProcessId q) { return e.id < q; }

/// Numbers the sessions of a `table_size` table that `entries` reference
/// 0, 1, ... in table order, re-points `entries` at those numbers, and
/// returns old index -> new index (kUnreferenced for dropped sessions).
std::vector<std::uint32_t> renumber(std::vector<LastFormed::Entry>& entries,
                                    std::size_t table_size) {
  std::vector<std::uint32_t> remap(table_size, kUnreferenced);
  for (const LastFormed::Entry& e : entries) remap[e.index] = 0;
  std::uint32_t next = 0;
  for (std::uint32_t& r : remap) {
    if (r != kUnreferenced) r = next++;
  }
  for (LastFormed::Entry& e : entries) e.index = remap[e.index];
  return remap;
}

}  // namespace

const Session* LastFormed::find(ProcessId q) const {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), q, id_less);
  if (it == entries_.end() || it->id != q) return nullptr;
  return &sessions_[it->index];
}

void LastFormed::assign(const Session& s) {
  const auto pos = std::lower_bound(sessions_.begin(), sessions_.end(), s);
  const auto index = static_cast<std::uint32_t>(pos - sessions_.begin());
  if (pos == sessions_.end() || *pos != s) {
    sessions_.insert(pos, s);
    for (Entry& e : entries_) {
      if (e.index >= index) ++e.index;
    }
  }

  // Merge the two ascending id lists: members of s point at it, every
  // other entry keeps its session.
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + s.members.size());
  auto it = entries_.begin();
  for (ProcessId q : s.members) {
    for (; it != entries_.end() && it->id < q; ++it) merged.push_back(*it);
    if (it != entries_.end() && it->id == q) ++it;
    merged.push_back({q, index});
  }
  merged.insert(merged.end(), it, entries_.end());
  entries_ = std::move(merged);

  // Drop the sessions no entry uses any more (remap[i] <= i, so the
  // survivors move forward in place).
  const std::vector<std::uint32_t> remap = renumber(entries_, sessions_.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < remap.size(); ++i) {
    if (remap[i] == kUnreferenced) continue;
    if (remap[i] != i) sessions_[remap[i]] = std::move(sessions_[i]);
    ++kept;
  }
  sessions_.resize(kept);
}

LastFormed LastFormed::restricted_to(const ProcessSet& view) const {
  LastFormed out;
  out.entries_.reserve(std::min(view.size(), entries_.size()));
  auto from = entries_.begin();
  for (ProcessId q : view) {
    from = std::lower_bound(from, entries_.end(), q, id_less);
    if (from == entries_.end()) break;
    if (from->id == q) out.entries_.push_back(*from);
  }
  const std::vector<std::uint32_t> remap =
      renumber(out.entries_, sessions_.size());
  for (std::size_t i = 0; i < remap.size(); ++i) {
    if (remap[i] != kUnreferenced) out.sessions_.push_back(sessions_[i]);
  }
  return out;
}

void LastFormed::encode(Encoder& enc) const {
  enc.put_varint(entries_.size());
  if (entries_.empty()) return;
  enc.put_varint(sessions_.size());
  for (const Session& s : sessions_) s.encode(enc);
  for (const Entry& e : entries_) {
    enc.put_process_id(e.id);
    enc.put_varint(e.index);
  }
}

LastFormed LastFormed::decode(Decoder& dec) {
  LastFormed lf;
  const std::uint64_t n_entries = dec.get_varint();
  if (n_entries == 0) return lf;
  // Every entry and every session needs at least one byte: a count
  // beyond the remaining buffer is malformed (and must not drive a huge
  // reserve).
  if (n_entries > dec.remaining()) {
    throw CodecError("last-formed entry count prefix too large");
  }
  const std::uint64_t n_sessions = dec.get_varint();
  if (n_sessions > dec.remaining()) {
    throw CodecError("last-formed session count prefix too large");
  }
  lf.sessions_.reserve(n_sessions);
  for (std::uint64_t i = 0; i < n_sessions; ++i) {
    Session s = Session::decode(dec);
    if (!lf.sessions_.empty() && !(lf.sessions_.back() < s)) {
      throw CodecError("last-formed sessions not strictly ascending");
    }
    lf.sessions_.push_back(std::move(s));
  }
  std::vector<bool> referenced(n_sessions, false);
  lf.entries_.reserve(n_entries);
  for (std::uint64_t i = 0; i < n_entries; ++i) {
    const ProcessId q = dec.get_process_id();
    const std::uint64_t index = dec.get_varint();
    if (index >= n_sessions) {
      throw CodecError("last-formed session index out of range");
    }
    if (!lf.entries_.empty() && !(lf.entries_.back().id < q)) {
      throw CodecError("last-formed ids not strictly ascending");
    }
    referenced[index] = true;
    lf.entries_.push_back({q, static_cast<std::uint32_t>(index)});
  }
  if (std::find(referenced.begin(), referenced.end(), false) !=
      referenced.end()) {
    throw CodecError("last-formed session referenced by no entry");
  }
  return lf;
}

std::string LastFormed::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (i != 0) out += " ";
    out += sessions_[i].to_string();
  }
  out += "]{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i != 0) out += ",";
    out += dynvote::to_string(entries_[i].id) + ":" +
           std::to_string(entries_[i].index);
  }
  return out + "}";
}

}  // namespace dynvote
