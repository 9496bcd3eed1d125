#include "util/process_set.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "util/ensure.hpp"

namespace dynvote {

namespace {

void normalize(std::vector<ProcessId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/// Throws InvariantViolation unless `v` is a legal process id.
void check_id(std::uint32_t v) {
  if (v >= kProcessIdLimit) [[unlikely]] {
    invariant_failed("ProcessSet: process id " + std::to_string(v) +
                     " is not below kProcessIdLimit (2^20)");
  }
}

/// Appends the ids encoded in `word` (offset by `base`) to `out`,
/// ascending.
void append_word_members(std::uint64_t word, std::uint32_t base,
                         std::vector<ProcessId>& out) {
  while (word != 0) {
    const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
    out.emplace_back(base + bit);
    word &= word - 1;
  }
}

}  // namespace

void ProcessSet::rebuild_bits() {
  bits_.fill(0);
  ext_bits_.clear();
  if (members_.empty()) return;
  // members_ is sorted, so the back decides legality and the width.
  const std::uint32_t top = members_.back().value();
  check_id(top);
  if (top >= kSmallIdLimit) {
    ext_bits_.resize(((top - kSmallIdLimit) >> 6) + 1, 0);
  }
  for (const ProcessId p : members_) {
    const std::uint32_t v = p.value();
    if (v < kSmallIdLimit) {
      bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
    } else {
      ext_bits_[(v - kSmallIdLimit) >> 6] |= std::uint64_t{1} << (v & 63);
    }
  }
}

void ProcessSet::trim_ext_bits() {
  while (!ext_bits_.empty() && ext_bits_.back() == 0) ext_bits_.pop_back();
}

void ProcessSet::rebuild_members_from_bits() {
  std::size_t count = 0;
  for (const std::uint64_t w : bits_) count += std::popcount(w);
  for (const std::uint64_t w : ext_bits_) count += std::popcount(w);
  members_.clear();
  members_.reserve(count);
  for (std::size_t w = 0; w < kWords; ++w) {
    append_word_members(bits_[w], static_cast<std::uint32_t>(w * 64),
                        members_);
  }
  for (std::size_t w = 0; w < ext_bits_.size(); ++w) {
    append_word_members(ext_bits_[w],
                        kSmallIdLimit + static_cast<std::uint32_t>(w * 64),
                        members_);
  }
}

ProcessSet::ProcessSet(std::initializer_list<ProcessId> ids) : members_(ids) {
  normalize(members_);
  rebuild_bits();
}

ProcessSet::ProcessSet(std::vector<ProcessId> ids) : members_(std::move(ids)) {
  normalize(members_);
  rebuild_bits();
}

ProcessSet ProcessSet::range(std::uint32_t n) {
  if (n != 0) check_id(n - 1);
  ProcessSet out;
  out.members_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.members_.emplace_back(i);
  out.rebuild_bits();
  return out;
}

ProcessSet ProcessSet::of(std::initializer_list<std::uint32_t> raw) {
  std::vector<ProcessId> ids;
  ids.reserve(raw.size());
  for (std::uint32_t r : raw) ids.emplace_back(r);
  return ProcessSet(std::move(ids));
}

bool ProcessSet::insert(ProcessId p) {
  const std::uint32_t v = p.value();
  check_id(v);
  auto it = std::lower_bound(members_.begin(), members_.end(), p);
  if (it != members_.end() && *it == p) return false;
  members_.insert(it, p);
  if (v < kSmallIdLimit) {
    bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
  } else {
    const std::size_t w = (v - kSmallIdLimit) >> 6;
    if (w >= ext_bits_.size()) ext_bits_.resize(w + 1, 0);
    ext_bits_[w] |= std::uint64_t{1} << (v & 63);
  }
  return true;
}

bool ProcessSet::erase(ProcessId p) {
  auto it = std::lower_bound(members_.begin(), members_.end(), p);
  if (it == members_.end() || *it != p) return false;
  members_.erase(it);
  const std::uint32_t v = p.value();
  if (v < kSmallIdLimit) {
    bits_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  } else {
    ext_bits_[(v - kSmallIdLimit) >> 6] &= ~(std::uint64_t{1} << (v & 63));
    trim_ext_bits();
  }
  return true;
}

ProcessSet ProcessSet::set_union(const ProcessSet& other) const {
  ProcessSet result;
  for (std::size_t w = 0; w < kWords; ++w) {
    result.bits_[w] = bits_[w] | other.bits_[w];
  }
  const ProcessSet& wide =
      ext_bits_.size() >= other.ext_bits_.size() ? *this : other;
  const ProcessSet& narrow =
      ext_bits_.size() >= other.ext_bits_.size() ? other : *this;
  result.ext_bits_ = wide.ext_bits_;
  for (std::size_t w = 0; w < narrow.ext_bits_.size(); ++w) {
    result.ext_bits_[w] |= narrow.ext_bits_[w];
  }
  result.rebuild_members_from_bits();
  return result;
}

ProcessSet ProcessSet::set_intersection(const ProcessSet& other) const {
  ProcessSet result;
  for (std::size_t w = 0; w < kWords; ++w) {
    result.bits_[w] = bits_[w] & other.bits_[w];
  }
  const std::size_t common = std::min(ext_bits_.size(), other.ext_bits_.size());
  result.ext_bits_.resize(common);
  for (std::size_t w = 0; w < common; ++w) {
    result.ext_bits_[w] = ext_bits_[w] & other.ext_bits_[w];
  }
  result.trim_ext_bits();
  result.rebuild_members_from_bits();
  return result;
}

ProcessSet ProcessSet::set_difference(const ProcessSet& other) const {
  ProcessSet result;
  for (std::size_t w = 0; w < kWords; ++w) {
    result.bits_[w] = bits_[w] & ~other.bits_[w];
  }
  result.ext_bits_ = ext_bits_;
  const std::size_t common = std::min(ext_bits_.size(), other.ext_bits_.size());
  for (std::size_t w = 0; w < common; ++w) {
    result.ext_bits_[w] &= ~other.ext_bits_[w];
  }
  result.trim_ext_bits();
  result.rebuild_members_from_bits();
  return result;
}

std::strong_ordering ProcessSet::compare_unequal(const ProcessSet& a,
                                                 const ProcessSet& b) {
  // x = the lowest id in exactly one of the sets. Both member lists agree
  // below x, so they first differ at x's position: the set holding x
  // lists x there, the other lists its next member above x, or ends.
  std::uint32_t x = 0;
  std::size_t w = 0;
  while (w < kWords && a.bits_[w] == b.bits_[w]) ++w;
  if (w < kWords) {
    x = static_cast<std::uint32_t>(
        w * 64 + std::countr_zero(a.bits_[w] ^ b.bits_[w]));
  } else {
    const std::size_t wide =
        std::max(a.ext_bits_.size(), b.ext_bits_.size());
    const auto word = [](const ProcessSet& s, std::size_t i) {
      return i < s.ext_bits_.size() ? s.ext_bits_[i] : std::uint64_t{0};
    };
    std::size_t e = 0;
    while (e < wide && word(a, e) == word(b, e)) ++e;
    x = kSmallIdLimit +
        static_cast<std::uint32_t>(e * 64 +
                                   std::countr_zero(word(a, e) ^ word(b, e)));
  }
  const bool a_has_x = a.contains(ProcessId(x));
  const ProcessSet& other = a_has_x ? b : a;
  // x < other's next member, or other is a proper prefix of the holder.
  const bool holder_is_less =
      !other.empty() && other.members_.back().value() > x;
  return holder_is_less == a_has_x ? std::strong_ordering::less
                                   : std::strong_ordering::greater;
}

std::optional<ProcessId> ProcessSet::max_member() const {
  if (members_.empty()) return std::nullopt;
  return members_.back();
}

std::size_t ProcessSet::index_of(ProcessId p) const {
  auto it = std::lower_bound(members_.begin(), members_.end(), p);
  if (it == members_.end() || *it != p) {
    invariant_failed("index_of: " + dynvote::to_string(p) + " not in " +
                     to_string());
  }
  return static_cast<std::size_t>(it - members_.begin());
}

std::string ProcessSet::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != 0) out += ",";
    out += dynvote::to_string(members_[i]);
  }
  out += "}";
  return out;
}

}  // namespace dynvote
