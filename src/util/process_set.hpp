// ProcessSet: an ordered set of process identifiers with the set algebra
// the quorum calculus needs (intersection sizes, majorities, maxima under
// the linear order).
//
// The set is its bitset, in two tiers: ids below kSmallIdLimit live in a
// 256-bit inline array (no heap traffic for every scenario the
// single-group harness generates, copies included), and ids in
// [kSmallIdLimit, kProcessIdLimit) live in a dynamically sized extension
// word vector, trimmed of trailing zero words. Iteration walks the set
// bits in ascending id order; index_of is a popcount rank and max_member
// a read of the highest nonzero word; size() is a count the mutators
// keep. The set predicates the Sub_Quorum hot path hammers — contains /
// intersection_size / is_subset_of / majority tests — and equality and
// the lexicographic order of the member lists run as word ops for every
// legal id, including pairs where one operand spills past the inline
// limit and the other does not. An id at or past kProcessIdLimit (2^20)
// is rejected with InvariantViolation.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "util/ids.hpp"

namespace dynvote {

/// An immutable-by-convention, sorted, duplicate-free set of ProcessIds.
///
/// This is the "membership" type used everywhere: views, quorums, session
/// memberships, and the W / A participant sets of paper section 6.
class ProcessSet {
 public:
  class const_iterator;

  /// Ids below this bound are tracked in the inline bitset (one 64-bit
  /// word per 64 ids, no heap allocation).
  static constexpr std::uint32_t kSmallIdLimit = 256;

  ProcessSet() = default;

  /// Builds a set from any list of ids; duplicates are collapsed. The
  /// constructors, range(), of() and insert() throw InvariantViolation on
  /// an id >= kProcessIdLimit.
  ProcessSet(std::initializer_list<ProcessId> ids);
  explicit ProcessSet(const std::vector<ProcessId>& ids);

  /// Convenience: {ProcessId(0), ..., ProcessId(n-1)}.
  [[nodiscard]] static ProcessSet range(std::uint32_t n);

  /// Convenience for tests/examples: build from raw integer ids.
  [[nodiscard]] static ProcessSet of(std::initializer_list<std::uint32_t> raw);

  [[nodiscard]] bool contains(ProcessId p) const {
    const std::uint32_t v = p.value();
    if (v < kSmallIdLimit) return (bits_[v >> 6] >> (v & 63)) & 1;
    const std::size_t w = (v - kSmallIdLimit) >> 6;
    if (w >= ext_bits_.size()) return false;
    return (ext_bits_[w] >> (v & 63)) & 1;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Adds a member; returns true if it was not already present.
  bool insert(ProcessId p);
  /// Removes a member; returns true if it was present.
  bool erase(ProcessId p);

  [[nodiscard]] ProcessSet set_union(const ProcessSet& other) const;
  [[nodiscard]] ProcessSet set_intersection(const ProcessSet& other) const;
  [[nodiscard]] ProcessSet set_difference(const ProcessSet& other) const;

  // The Sub_Quorum hot-path predicates are defined inline so the bitset
  // fast path compiles down to word ops at the call site. Each one walks
  // the inline words of both operands and then the common prefix of the
  // extension words; a pure-inline pair never touches the heap vectors.

  [[nodiscard]] std::size_t intersection_size(const ProcessSet& other) const {
    const std::size_t common =
        ext_bits_.size() < other.ext_bits_.size() ? ext_bits_.size()
                                                  : other.ext_bits_.size();
    // Four independent accumulators: popcount has multi-cycle latency, so
    // a single `count +=` chain serializes the walk and a 1024-id set
    // pays ~4x the 256-id latency instead of ~4x the throughput cost.
    std::size_t c0 = 0;
    std::size_t c1 = 0;
    std::size_t c2 = 0;
    std::size_t c3 = 0;
    static_assert(kWords == 4);
    c0 = static_cast<std::size_t>(std::popcount(bits_[0] & other.bits_[0]));
    c1 = static_cast<std::size_t>(std::popcount(bits_[1] & other.bits_[1]));
    c2 = static_cast<std::size_t>(std::popcount(bits_[2] & other.bits_[2]));
    c3 = static_cast<std::size_t>(std::popcount(bits_[3] & other.bits_[3]));
    const std::uint64_t* a = ext_bits_.data();
    const std::uint64_t* b = other.ext_bits_.data();
    std::size_t w = 0;
    for (; w + 4 <= common; w += 4) {
      c0 += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
      c1 += static_cast<std::size_t>(std::popcount(a[w + 1] & b[w + 1]));
      c2 += static_cast<std::size_t>(std::popcount(a[w + 2] & b[w + 2]));
      c3 += static_cast<std::size_t>(std::popcount(a[w + 3] & b[w + 3]));
    }
    for (; w < common; ++w) {
      c0 += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
    }
    return (c0 + c1) + (c2 + c3);
  }

  [[nodiscard]] bool intersects(const ProcessSet& other) const {
    std::uint64_t any0 = (bits_[0] & other.bits_[0]) | (bits_[1] & other.bits_[1]);
    std::uint64_t any1 = (bits_[2] & other.bits_[2]) | (bits_[3] & other.bits_[3]);
    const std::size_t common =
        ext_bits_.size() < other.ext_bits_.size() ? ext_bits_.size()
                                                  : other.ext_bits_.size();
    const std::uint64_t* a = ext_bits_.data();
    const std::uint64_t* b = other.ext_bits_.data();
    std::size_t w = 0;
    for (; w + 2 <= common; w += 2) {
      any0 |= a[w] & b[w];
      any1 |= a[w + 1] & b[w + 1];
    }
    if (w < common) any0 |= a[w] & b[w];
    return (any0 | any1) != 0;
  }

  [[nodiscard]] bool is_subset_of(const ProcessSet& other) const {
    // Extension words are trimmed (no trailing zeros), so a wider
    // extension means a member beyond anything `other` can hold.
    if (ext_bits_.size() > other.ext_bits_.size()) return false;
    std::uint64_t stray = 0;
    for (std::size_t w = 0; w < kWords; ++w) {
      stray |= bits_[w] & ~other.bits_[w];
    }
    for (std::size_t w = 0; w < ext_bits_.size(); ++w) {
      stray |= ext_bits_[w] & ~other.ext_bits_[w];
    }
    return stray == 0;
  }

  /// True iff this set contains a strict majority of `of`. An empty `of`
  /// has no majority to contain: the predicate is false (0 > 0 fails),
  /// matching the paper-4.1 reading that succession clauses apply to a
  /// real previous quorum.
  [[nodiscard]] bool contains_majority_of(const ProcessSet& of) const {
    return 2 * intersection_size(of) > of.size();
  }

  /// True iff this set contains exactly half of `of` (|of| even and
  /// nonzero). The tie-break clause 2b of paper 4.1 splits a REAL
  /// previous quorum into halves; an empty `of` must not satisfy it
  /// vacuously (2*0 == 0), so it is guarded to false.
  [[nodiscard]] bool contains_exact_half_of(const ProcessSet& of) const {
    if (of.empty()) return false;
    return 2 * intersection_size(of) == of.size();
  }

  /// The highest-ranked member under the natural linear order, if any.
  /// Paper 4.1 uses the maximum of the *previous quorum* to break ties.
  [[nodiscard]] std::optional<ProcessId> max_member() const;

  /// Position of `p` in ascending id order (the number of members below
  /// it); this is the i_M(q) index the optimized protocol's knowledge
  /// arrays are keyed by (paper 5.1). Throws InvariantViolation unless
  /// contains(p).
  [[nodiscard]] std::size_t index_of(ProcessId p) const;

  /// Ascending id order.
  [[nodiscard]] const_iterator begin() const noexcept;
  [[nodiscard]] const_iterator end() const noexcept;

  /// Compares the bitset words: exact, because the extension words are
  /// trimmed of trailing zeros, so equal sets have equal words.
  friend bool operator==(const ProcessSet& a, const ProcessSet& b) {
    return a.bits_ == b.bits_ && a.ext_bits_ == b.ext_bits_;
  }

  /// Deterministic total order: lexicographic on the ascending member
  /// lists, so ProcessSets can key ordered containers. Decided from the
  /// words in O(n / 64).
  friend std::strong_ordering operator<=>(const ProcessSet& a,
                                          const ProcessSet& b) {
    if (a == b) return std::strong_ordering::equal;
    return compare_unequal(a, b);
  }

  /// Renders as "{p0,p1,p4}".
  [[nodiscard]] std::string to_string() const;
  /// Appends to_string()'s text to `out`, with no per-member temporary.
  void append_to(std::string& out) const;

  /// True iff the set fits the inline words alone (every member id
  /// < kSmallIdLimit): no heap storage behind the bitset. Erasing the
  /// last id >= kSmallIdLimit restores this state.
  [[nodiscard]] bool uses_inline_bits() const noexcept {
    return ext_bits_.empty();
  }

 private:
  static constexpr std::size_t kWords = kSmallIdLimit / 64;

  /// Word `w` of the whole bitset: the inline words, then the extension
  /// words, so word w holds ids [64w, 64(w+1)).
  [[nodiscard]] std::uint64_t word(std::size_t w) const noexcept {
    return w < kWords ? bits_[w] : ext_bits_[w - kWords];
  }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return kWords + ext_bits_.size();
  }
  /// Drops trailing all-zero extension words so ext_bits_.size() encodes
  /// the highest occupied word (the is_subset_of width shortcut,
  /// max_member and uses_inline_bits depend on this invariant).
  void trim_ext_bits();
  /// Sets size_ from the words (after a set operation).
  void recount();
  /// operator<=> for two sets known to differ.
  [[nodiscard]] static std::strong_ordering compare_unequal(
      const ProcessSet& a, const ProcessSet& b);

  // bits_ holds ids below kSmallIdLimit; ext_bits_[w] holds ids
  // [kSmallIdLimit + 64w, kSmallIdLimit + 64(w+1)), trimmed of trailing
  // zero words.
  std::array<std::uint64_t, kWords> bits_{};
  std::vector<std::uint64_t> ext_bits_;
  std::size_t size_ = 0;
};

/// Forward iterator over the set bits, yielding each member's ProcessId
/// in ascending order. Invalidated by any mutation of the set.
class ProcessSet::const_iterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = ProcessId;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = ProcessId;

  const_iterator() = default;

  ProcessId operator*() const noexcept {
    return ProcessId(static_cast<std::uint32_t>(
        word_ * 64 + static_cast<std::size_t>(std::countr_zero(rest_))));
  }
  const_iterator& operator++() noexcept {
    rest_ &= rest_ - 1;
    if (rest_ == 0) skip_empty_words();
    return *this;
  }
  const_iterator operator++(int) noexcept {
    const_iterator before = *this;
    ++*this;
    return before;
  }
  friend bool operator==(const const_iterator& a,
                         const const_iterator& b) noexcept {
    return a.word_ == b.word_ && a.rest_ == b.rest_;
  }

 private:
  friend class ProcessSet;
  const_iterator(const ProcessSet* set, std::size_t w,
                 std::uint64_t rest) noexcept
      : set_(set), word_(w), rest_(rest) {}
  /// From a visited word_, moves to the next nonzero word, or to end().
  void skip_empty_words() noexcept {
    const std::size_t words = set_->word_count();
    while (++word_ < words) {
      rest_ = set_->word(word_);
      if (rest_ != 0) return;
    }
  }

  const ProcessSet* set_ = nullptr;
  std::size_t word_ = 0;     // index into the whole bitset (see word())
  std::uint64_t rest_ = 0;   // bits of word_ not yet visited
};

inline ProcessSet::const_iterator ProcessSet::begin() const noexcept {
  const_iterator it(this, 0, bits_[0]);
  if (bits_[0] == 0) it.skip_empty_words();
  return it;
}
inline ProcessSet::const_iterator ProcessSet::end() const noexcept {
  return const_iterator(this, word_count(), 0);
}

[[nodiscard]] inline std::string to_string(const ProcessSet& s) {
  return s.to_string();
}

}  // namespace dynvote
