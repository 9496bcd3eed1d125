// Ring: the one bounded event history of the observability layer.
//
// TraceSink's events, each flight-recorder group and the time-series
// rows are kept in a Ring. It appends until it holds `capacity`
// elements, then assigns each new element into the oldest slot in
// place, so a saturated ring reuses the slot's heap allocations (a
// TraceEvent's member set and detail string) instead of freeing and
// allocating one element per push. Capacity 0 means unbounded.
//
// Storage is chunks of kChunk elements, allocated as elements arrive:
// nothing is reserved up front, so a bound far above what a run records
// (a pool process's 65,536 events) costs only what is recorded, and
// growth never moves an element or leaves a freed buffer behind. A
// single doubling std::vector did both, and raised dvbench's peak RSS
// by about 1 MB on c5-n16 and handover-n256. Iteration is oldest-first
// and wraps by one comparison per step; a slot splits into chunk and
// offset by a shift and a mask, never a division.
//
// runtime_probe.hpp's ProbeRing stays separate: its POD slots are
// allocated uninitialized at a power-of-two size, so a record is five
// stores and a masked index with no size check or growth, and it runs
// on the pool's wall-clock path, which the probe-overhead gate times
// (docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace dynvote::obs {

template <typename T>
class Ring {
 public:
  /// Oldest-first forward iterator over a ring's elements.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const Ring* ring, std::size_t index)
        : ring_(ring), index_(index) {}

    reference operator*() const { return (*ring_)[index_]; }
    pointer operator->() const { return &(*ring_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    const Ring* ring_ = nullptr;
    std::size_t index_ = 0;
  };

  explicit Ring(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Appends `value`; once the ring is full, assigns it into the oldest
  /// slot instead and counts the overwritten element. Returns the stored
  /// element.
  template <typename U>
  T& push(U&& value) {
    if (capacity_ == 0 || size_ < capacity_) {
      if ((size_ & (kChunk - 1)) == 0) chunks_.emplace_back().reserve(kChunk);
      ++size_;
      return chunks_.back().emplace_back(std::forward<U>(value));
    }
    T& slot = at(head_);
    slot = std::forward<U>(value);
    if (++head_ == size_) head_ = 0;
    ++overwritten_;
    return slot;
  }

  /// Drops every element and resets the overwritten count.
  void clear() noexcept {
    chunks_.clear();
    size_ = 0;
    head_ = 0;
    overwritten_ = 0;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Elements overwritten by the bound since construction or clear().
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return overwritten_;
  }

  /// The i-th element, oldest first. Precondition: i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const {
    const std::size_t slot = head_ + i;
    return at(slot < size_ ? slot : slot - size_);
  }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

 private:
  static constexpr std::size_t kChunkBits = 3;
  static constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;

  [[nodiscard]] T& at(std::size_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunk - 1)];
  }
  [[nodiscard]] const T& at(std::size_t slot) const {
    return chunks_[slot >> kChunkBits][slot & (kChunk - 1)];
  }

  std::size_t capacity_;
  std::vector<std::vector<T>> chunks_;  // each holds at most kChunk
  std::size_t size_ = 0;
  std::size_t head_ = 0;  // the oldest slot once full; 0 until then
  std::uint64_t overwritten_ = 0;
};

}  // namespace dynvote::obs
