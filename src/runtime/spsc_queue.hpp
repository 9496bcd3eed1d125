// SpscQueue: a bounded lock-free single-producer single-consumer ring.
//
// The pool runtime (runtime/pool_transport.hpp) connects every ordered
// pair of workers with one of these, so a ring has exactly one producer
// thread (the sending worker) and one consumer thread (the receiving
// worker) — the only shape that admits a wait-free ring with plain
// acquire/release pairs and no CAS loops.
//
// Layout follows the classic Lamport ring with two refinements:
//
//  * head (consumer cursor) and tail (producer cursor) live on their
//    own cache lines, so the producer's stores never invalidate the
//    line the consumer spins on (and vice versa);
//  * each side keeps a *cached* copy of the other side's cursor next to
//    its own, refreshed only when the queue looks full/empty. In steady
//    state a push is: one relaxed load (own tail), one store (slot),
//    one release store (tail) — no shared-line traffic at all.
//
// Indices are free-running uint64_t (no wrap handling needed for
// centuries at any realistic rate); the slot index is `cursor & mask`
// with a power-of-two capacity.
//
// Memory ordering: the producer publishes a slot with a release store
// of tail; the consumer acquires tail before reading the slot, and
// releases head after moving the value out so the producer's acquire
// of head cannot overtake the read. That is the entire protocol —
// verified under TSan by tests/runtime_test.cpp's stress cases.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/ensure.hpp"

namespace dynvote::runtime {

/// x86-64 / AArch64 destructive-interference granularity. (Not
/// std::hardware_destructive_interference_size: its value is ABI-fragile
/// and GCC warns on any use inside a header.)
inline constexpr std::size_t kCacheLineSize = 64;

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.
  explicit SpscQueue(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. False when the ring is full (the caller decides
  /// whether to spin, yield, or drop); `value` is moved from only on
  /// success, so a failed push leaves it intact for the retry.
  bool try_push(T&& value) {
    const std::uint64_t tail = tail_.pos.load(std::memory_order_relaxed);
    if (tail - tail_.cached_other > mask_) {
      tail_.cached_other = head_.pos.load(std::memory_order_acquire);
      if (tail - tail_.cached_other > mask_) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.pos.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. False when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.pos.load(std::memory_order_relaxed);
    if (head == head_.cached_other) {
      head_.cached_other = tail_.pos.load(std::memory_order_acquire);
      if (head == head_.cached_other) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.pos.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, batched: moves up to `max` items into `out`
  /// (appended, FIFO order preserved) and returns how many. The whole
  /// batch costs at most one acquire refresh of the producer cursor and
  /// exactly one release store of the consumer cursor — the per-item
  /// cost of a burst drain collapses to a plain move. Drains only what
  /// the one refresh saw: items pushed concurrently with the drain are
  /// picked up by the next call (their producer bumps the eventcount,
  /// so no consumer goes idle on them).
  std::size_t pop_bulk(std::vector<T>& out, std::size_t max) {
    if (max == 0) return 0;
    const std::uint64_t head = head_.pos.load(std::memory_order_relaxed);
    if (head == head_.cached_other) {
      head_.cached_other = tail_.pos.load(std::memory_order_acquire);
      if (head == head_.cached_other) return 0;
    }
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(head_.cached_other - head, max));
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(std::move(slots_[(head + i) & mask_]));
    }
    head_.pos.store(head + count, std::memory_order_release);
    return count;
  }

  /// Consumer-side emptiness probe (exact for the consumer: it owns
  /// head, and a concurrent push can only make the queue less empty).
  [[nodiscard]] bool empty() const {
    return head_.pos.load(std::memory_order_relaxed) ==
           tail_.pos.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer-side occupancy estimate (exact for the producer: it owns
  /// tail, and a concurrent pop can only make the queue less full).
  /// Costs an acquire of head — for probes, not the hot path.
  [[nodiscard]] std::size_t producer_size() const {
    return static_cast<std::size_t>(
        tail_.pos.load(std::memory_order_relaxed) -
        head_.pos.load(std::memory_order_acquire));
  }

 private:
  /// One side's cursor plus its cached snapshot of the other side's,
  /// padded so the two sides never share a line.
  struct alignas(kCacheLineSize) Side {
    std::atomic<std::uint64_t> pos{0};
    std::uint64_t cached_other = 0;  // owned by this side's thread only
  };
  static_assert(sizeof(Side) == kCacheLineSize, "one side = one line");

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  Side head_;  // consumer: pos = next slot to pop, cached_other = tail
  Side tail_;  // producer: pos = next slot to fill, cached_other = head
};

}  // namespace dynvote::runtime
