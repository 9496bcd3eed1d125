#include "util/process_set.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "util/ensure.hpp"

namespace dynvote {

namespace {

/// Throws InvariantViolation unless `v` is a legal process id.
void check_id(std::uint32_t v) {
  if (v >= kProcessIdLimit) [[unlikely]] {
    invariant_failed("ProcessSet: process id " + std::to_string(v) +
                     " is not below kProcessIdLimit (2^20)");
  }
}

}  // namespace

void ProcessSet::trim_ext_bits() {
  while (!ext_bits_.empty() && ext_bits_.back() == 0) ext_bits_.pop_back();
}

void ProcessSet::recount() {
  size_ = 0;
  for (const std::uint64_t w : bits_) size_ += std::popcount(w);
  for (const std::uint64_t w : ext_bits_) size_ += std::popcount(w);
}

ProcessSet::ProcessSet(std::initializer_list<ProcessId> ids) {
  for (const ProcessId p : ids) insert(p);
}

ProcessSet::ProcessSet(const std::vector<ProcessId>& ids) {
  for (const ProcessId p : ids) insert(p);
}

ProcessSet ProcessSet::range(std::uint32_t n) {
  if (n != 0) check_id(n - 1);
  ProcessSet out;
  for (std::uint32_t i = 0; i < n; ++i) out.insert(ProcessId(i));
  return out;
}

ProcessSet ProcessSet::of(std::initializer_list<std::uint32_t> raw) {
  ProcessSet out;
  for (const std::uint32_t r : raw) out.insert(ProcessId(r));
  return out;
}

bool ProcessSet::insert(ProcessId p) {
  const std::uint32_t v = p.value();
  check_id(v);
  const std::uint64_t bit = std::uint64_t{1} << (v & 63);
  std::uint64_t* slot = nullptr;
  if (v < kSmallIdLimit) {
    slot = &bits_[v >> 6];
  } else {
    const std::size_t w = (v - kSmallIdLimit) >> 6;
    if (w >= ext_bits_.size()) ext_bits_.resize(w + 1, 0);
    slot = &ext_bits_[w];
  }
  if ((*slot & bit) != 0) return false;
  *slot |= bit;
  ++size_;
  return true;
}

bool ProcessSet::erase(ProcessId p) {
  if (!contains(p)) return false;
  const std::uint32_t v = p.value();
  const std::uint64_t bit = std::uint64_t{1} << (v & 63);
  if (v < kSmallIdLimit) {
    bits_[v >> 6] &= ~bit;
  } else {
    ext_bits_[(v - kSmallIdLimit) >> 6] &= ~bit;
    trim_ext_bits();
  }
  --size_;
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
  result.recount();
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
  result.recount();
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
  result.recount();
  return result;
}

std::strong_ordering ProcessSet::compare_unequal(const ProcessSet& a,
                                                 const ProcessSet& b) {
  // x = the lowest id in exactly one of the sets. Both member lists agree
  // below x, so they first differ at x's position: the set holding x
  // lists x there, the other lists its next member above x, or ends.
  const auto at = [](const ProcessSet& s, std::size_t w) {
    return w < s.word_count() ? s.word(w) : std::uint64_t{0};
  };
  std::size_t w = 0;
  while (at(a, w) == at(b, w)) ++w;  // stops: the sets differ
  const std::uint32_t x = static_cast<std::uint32_t>(
      w * 64 + static_cast<std::size_t>(std::countr_zero(at(a, w) ^ at(b, w))));
  const bool a_has_x = a.contains(ProcessId(x));
  const ProcessSet& other = a_has_x ? b : a;
  // x < other's next member, or other is a proper prefix of the holder.
  const bool holder_is_less =
      !other.empty() && other.max_member()->value() > x;
  return holder_is_less == a_has_x ? std::strong_ordering::less
                                   : std::strong_ordering::greater;
}

std::optional<ProcessId> ProcessSet::max_member() const {
  // Trimmed extension words make the last one nonzero when there is one.
  std::size_t w = word_count();
  while (w != 0 && word(w - 1) == 0) --w;
  if (w == 0) return std::nullopt;
  return ProcessId(static_cast<std::uint32_t>(
      w * 64 - 1 - static_cast<std::size_t>(std::countl_zero(word(w - 1)))));
}

std::size_t ProcessSet::index_of(ProcessId p) const {
  if (!contains(p)) {
    invariant_failed("index_of: " + dynvote::to_string(p) + " not in " +
                     to_string());
  }
  const std::size_t w = p.value() >> 6;
  std::size_t rank = 0;
  for (std::size_t i = 0; i < w; ++i) rank += std::popcount(word(i));
  const std::uint64_t below = (std::uint64_t{1} << (p.value() & 63)) - 1;
  return rank + static_cast<std::size_t>(std::popcount(word(w) & below));
}

std::string ProcessSet::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void ProcessSet::append_to(std::string& out) const {
  out += '{';
  bool first = true;
  for (const ProcessId p : *this) {
    if (!first) out += ',';
    first = false;
    out += 'p';
    append_decimal(out, p.value());
  }
  out += '}';
}

}  // namespace dynvote
