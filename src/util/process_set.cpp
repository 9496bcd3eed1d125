#include "util/process_set.hpp"

#include <algorithm>
#include <bit>

#include "util/ensure.hpp"

namespace dynvote {

namespace detail {

namespace {

std::size_t intersect_popcount_scalar(const std::uint64_t* a1,
                                      const std::uint64_t* b1, std::size_t n1,
                                      const std::uint64_t* a2,
                                      const std::uint64_t* b2, std::size_t n2) {
  std::size_t c0 = 0;
  std::size_t c1 = 0;
  std::size_t c2 = 0;
  std::size_t c3 = 0;
  const auto run = [&](const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n) {
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
      c0 += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
      c1 += static_cast<std::size_t>(std::popcount(a[w + 1] & b[w + 1]));
      c2 += static_cast<std::size_t>(std::popcount(a[w + 2] & b[w + 2]));
      c3 += static_cast<std::size_t>(std::popcount(a[w + 3] & b[w + 3]));
    }
    for (; w < n; ++w) {
      c0 += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
    }
  };
  run(a1, b1, n1);
  run(a2, b2, n2);
  return (c0 + c1) + (c2 + c3);
}

}  // namespace

// Constant-initialized to the scalar kernel so the pointer is valid even
// during other translation units' static initialization; upgraded to the
// AVX2 kernel (when compiled in and the CPU supports it) by the dynamic
// initializer below.
constinit IntersectPopcountFn intersect_popcount = &intersect_popcount_scalar;

#if defined(DYNVOTE_SIMD_AVX2)
std::size_t intersect_popcount_avx2(const std::uint64_t* a1,
                                    const std::uint64_t* b1, std::size_t n1,
                                    const std::uint64_t* a2,
                                    const std::uint64_t* b2, std::size_t n2);

namespace {
struct SimdDispatch {
  SimdDispatch() {
    if (__builtin_cpu_supports("avx2")) {
      intersect_popcount = &intersect_popcount_avx2;
    }
  }
} simd_dispatch;
}  // namespace
#endif

}  // namespace detail

namespace {

void normalize(std::vector<ProcessId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
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
  // members_ is sorted, so one comparison against the back decides the
  // representation.
  huge_ = !members_.empty() && members_.back().value() >= kDynamicIdLimit;
  if (huge_) return;
  if (!members_.empty() && members_.back().value() >= kSmallIdLimit) {
    ext_bits_.resize(((members_.back().value() - kSmallIdLimit) >> 6) + 1, 0);
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

ProcessSet ProcessSet::from_sorted(std::vector<ProcessId> ids) {
  ProcessSet out;
  out.members_ = std::move(ids);
  out.rebuild_bits();
  return out;
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
  std::vector<ProcessId> ids;
  ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ids.emplace_back(i);
  return from_sorted(std::move(ids));
}

ProcessSet ProcessSet::of(std::initializer_list<std::uint32_t> raw) {
  std::vector<ProcessId> ids;
  ids.reserve(raw.size());
  for (std::uint32_t r : raw) ids.emplace_back(r);
  return ProcessSet(std::move(ids));
}

bool ProcessSet::contains_slow(ProcessId p) const {
  return std::binary_search(members_.begin(), members_.end(), p);
}

bool ProcessSet::insert(ProcessId p) {
  auto it = std::lower_bound(members_.begin(), members_.end(), p);
  if (it != members_.end() && *it == p) return false;
  members_.insert(it, p);
  const std::uint32_t v = p.value();
  if (v >= kDynamicIdLimit) {
    if (!huge_) {
      bits_.fill(0);
      ext_bits_.clear();
    }
    huge_ = true;
  } else if (!huge_) {
    if (v < kSmallIdLimit) {
      bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
    } else {
      const std::size_t w = (v - kSmallIdLimit) >> 6;
      if (w >= ext_bits_.size()) ext_bits_.resize(w + 1, 0);
      ext_bits_[w] |= std::uint64_t{1} << (v & 63);
    }
  }
  return true;
}

bool ProcessSet::erase(ProcessId p) {
  auto it = std::lower_bound(members_.begin(), members_.end(), p);
  if (it == members_.end() || *it != p) return false;
  members_.erase(it);
  const std::uint32_t v = p.value();
  if (!huge_) {
    if (v < kSmallIdLimit) {
      bits_[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
    } else {
      ext_bits_[(v - kSmallIdLimit) >> 6] &= ~(std::uint64_t{1} << (v & 63));
      trim_ext_bits();
    }
  } else if (members_.empty() || members_.back().value() < kDynamicIdLimit) {
    // Removing the last huge id drops the set back onto the word-wise
    // fast path.
    rebuild_bits();
  }
  return true;
}

ProcessSet ProcessSet::set_union(const ProcessSet& other) const {
  if (!huge_ && !other.huge_) {
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
  std::vector<ProcessId> out;
  out.reserve(members_.size() + other.members_.size());
  std::set_union(members_.begin(), members_.end(), other.members_.begin(),
                 other.members_.end(), std::back_inserter(out));
  return from_sorted(std::move(out));
}

ProcessSet ProcessSet::set_intersection(const ProcessSet& other) const {
  if (!huge_ && !other.huge_) {
    ProcessSet result;
    for (std::size_t w = 0; w < kWords; ++w) {
      result.bits_[w] = bits_[w] & other.bits_[w];
    }
    const std::size_t common =
        std::min(ext_bits_.size(), other.ext_bits_.size());
    result.ext_bits_.resize(common);
    for (std::size_t w = 0; w < common; ++w) {
      result.ext_bits_[w] = ext_bits_[w] & other.ext_bits_[w];
    }
    result.trim_ext_bits();
    result.rebuild_members_from_bits();
    return result;
  }
  std::vector<ProcessId> out;
  out.reserve(std::min(members_.size(), other.members_.size()));
  std::set_intersection(members_.begin(), members_.end(), other.members_.begin(),
                        other.members_.end(), std::back_inserter(out));
  return from_sorted(std::move(out));
}

ProcessSet ProcessSet::set_difference(const ProcessSet& other) const {
  if (!huge_ && !other.huge_) {
    ProcessSet result;
    for (std::size_t w = 0; w < kWords; ++w) {
      result.bits_[w] = bits_[w] & ~other.bits_[w];
    }
    result.ext_bits_ = ext_bits_;
    const std::size_t common =
        std::min(ext_bits_.size(), other.ext_bits_.size());
    for (std::size_t w = 0; w < common; ++w) {
      result.ext_bits_[w] &= ~other.ext_bits_[w];
    }
    result.trim_ext_bits();
    result.rebuild_members_from_bits();
    return result;
  }
  std::vector<ProcessId> out;
  out.reserve(members_.size());
  std::set_difference(members_.begin(), members_.end(), other.members_.begin(),
                      other.members_.end(), std::back_inserter(out));
  return from_sorted(std::move(out));
}

std::size_t ProcessSet::intersection_size_slow(const ProcessSet& other) const {
  std::size_t count = 0;
  auto a = members_.begin();
  auto b = other.members_.begin();
  while (a != members_.end() && b != other.members_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

bool ProcessSet::intersects_slow(const ProcessSet& other) const {
  auto a = members_.begin();
  auto b = other.members_.begin();
  while (a != members_.end() && b != other.members_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

bool ProcessSet::is_subset_of_slow(const ProcessSet& other) const {
  if (members_.size() > other.members_.size()) return false;
  return std::includes(other.members_.begin(), other.members_.end(),
                       members_.begin(), members_.end());
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
