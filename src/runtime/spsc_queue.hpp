// SpscQueue: an unbounded lock-free single-producer single-consumer
// queue, built as a chain of fixed-size segments.
//
// The pool runtime (runtime/pool_transport.hpp) connects every ordered
// pair of workers with one of these and feeds each worker's control
// items through another, so a queue has exactly one producer thread and
// one consumer thread: plain acquire/release pairs, no CAS loops. A push
// never fails — a full segment gets a fresh one linked behind it — so
// the pool needs no overflow path and no sender ever spins.
//
//  * head and tail are free-running positions, each on its own cache
//    line with its side's current segment; position p lives in slot
//    p % kSegmentItems. A push is one slot write plus one release store;
//    the consumer refreshes its cached tail only when it runs dry.
//  * A segment's `next` pointer is plain memory, written by the producer
//    before the first item of the next segment and published by that
//    item's release store of tail.
//  * The consumer recycles a segment only after consuming past it, as
//    the one spare the producer takes back through an atomic exchange;
//    any other finished segment is freed.
//
// tests/runtime_test.cpp's two-thread stress cases run under TSan.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace dynvote::runtime {

/// x86-64 / AArch64 destructive-interference granularity. (Not
/// std::hardware_destructive_interference_size: its value is ABI-fragile
/// and GCC warns on any use inside a header.)
inline constexpr std::size_t kCacheLineSize = 64;

template <typename T>
class SpscQueue {
 public:
  /// Items per segment.
  static constexpr std::size_t kSegmentItems = 256;

  SpscQueue() {
    head_.segment = new Segment;
    tail_.segment = head_.segment;
  }

  ~SpscQueue() {
    // Single-threaded by now: destroy what was never popped, then free
    // the chain and the spare.
    for (std::uint64_t pos = head_.pos.load(std::memory_order_relaxed);
         pos != tail_.pos.load(std::memory_order_relaxed); ++pos) {
      enter_consumer_segment(pos);
      head_.segment->slots[pos % kSegmentItems].value.~T();
    }
    for (Segment* seg = head_.segment; seg != nullptr;) {
      Segment* next = seg->next;
      delete seg;
      seg = next;
    }
    delete spare_.load(std::memory_order_relaxed);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Always succeeds.
  void push(T&& value) {
    const std::uint64_t tail = tail_.pos.load(std::memory_order_relaxed);
    if (tail % kSegmentItems == 0 && tail != 0) {
      Segment* fresh = spare_.exchange(nullptr, std::memory_order_acquire);
      if (fresh == nullptr) {
        fresh = new Segment;
      } else {
        fresh->next = nullptr;
      }
      tail_.segment->next = fresh;  // published by the release store below
      tail_.segment = fresh;
    }
    new (&tail_.segment->slots[tail % kSegmentItems].value) T(std::move(value));
    tail_.pos.store(tail + 1, std::memory_order_release);
  }

  /// Consumer side. False when the queue is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.pos.load(std::memory_order_relaxed);
    if (head == head_.cached_tail) {
      head_.cached_tail = tail_.pos.load(std::memory_order_acquire);
      if (head == head_.cached_tail) return false;
    }
    out = take(head);
    head_.pos.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, batched: moves up to `max` items into `out`
  /// (appended, FIFO order preserved, across segment boundaries) and
  /// returns how many. The whole batch costs at most one acquire
  /// refresh of the producer cursor and exactly one release store of
  /// the consumer cursor. Drains only what the one refresh saw: items
  /// pushed concurrently with the drain are picked up by the next call
  /// (their producer wakes the consumer's worker, so no consumer goes
  /// idle on them).
  std::size_t pop_bulk(std::vector<T>& out, std::size_t max) {
    if (max == 0) return 0;
    const std::uint64_t head = head_.pos.load(std::memory_order_relaxed);
    if (head == head_.cached_tail) {
      head_.cached_tail = tail_.pos.load(std::memory_order_acquire);
      if (head == head_.cached_tail) return 0;
    }
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(head_.cached_tail - head, max));
    for (std::size_t i = 0; i < count; ++i) out.push_back(take(head + i));
    head_.pos.store(head + count, std::memory_order_release);
    return count;
  }

  /// True iff every item pushed so far has been popped. Callable from
  /// any thread: an acquire read of head, then of tail. Head never
  /// passes tail, so reading head first makes a true result exact at
  /// the moment head was read.
  [[nodiscard]] bool drained() const {
    const std::uint64_t head = head_.pos.load(std::memory_order_acquire);
    return head == tail_.pos.load(std::memory_order_acquire);
  }

  /// Producer-side occupancy estimate (exact for the producer: it owns
  /// tail, and a concurrent pop can only make the queue shorter).
  /// Costs an acquire of head — for probes, not the hot path.
  [[nodiscard]] std::size_t producer_size() const {
    return static_cast<std::size_t>(
        tail_.pos.load(std::memory_order_relaxed) -
        head_.pos.load(std::memory_order_acquire));
  }

 private:
  struct Segment {
    /// Raw storage: a slot holds a live T only between its push and its
    /// pop, so a segment never default-constructs or reassigns items.
    union Slot {
      Slot() {}
      ~Slot() {}
      T value;
    };
    Slot slots[kSegmentItems];
    Segment* next = nullptr;
  };

  /// One side's cursor and segment (plus, for the consumer, its cached
  /// snapshot of the producer's cursor), padded so the two sides never
  /// share a line. Only `pos` is read by the other side.
  struct alignas(kCacheLineSize) Side {
    std::atomic<std::uint64_t> pos{0};
    std::uint64_t cached_tail = 0;  // consumer only
    Segment* segment = nullptr;     // consumer: holds pos; producer: newest
  };
  static_assert(sizeof(Side) == kCacheLineSize, "one side = one line");

  /// Consumer: steps into the next segment when `pos` is its first
  /// position, handing the one it leaves back as the spare.
  void enter_consumer_segment(std::uint64_t pos) {
    if (pos % kSegmentItems != 0 || pos == 0) return;
    Segment* done = head_.segment;
    head_.segment = done->next;
    delete spare_.exchange(done, std::memory_order_release);
  }

  /// Consumer: moves position `pos` out and ends its lifetime.
  T take(std::uint64_t pos) {
    enter_consumer_segment(pos);
    T& slot = head_.segment->slots[pos % kSegmentItems].value;
    T value = std::move(slot);
    slot.~T();
    return value;
  }

  Side head_;  // consumer: pos = next position to pop
  Side tail_;  // producer: pos = next position to fill
  std::atomic<Segment*> spare_{nullptr};
};

}  // namespace dynvote::runtime
