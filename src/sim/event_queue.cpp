#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

#include "util/ensure.hpp"

namespace dynvote::sim {

// A capacity bump that silently fattens every slab slot must fail
// here, not in a profile.
static_assert(sizeof(EventQueue::Action) == 112,
              "Action = 88-byte SBO + 3 dispatch pointers");
static_assert(alignof(EventQueue::Action) == alignof(std::max_align_t),
              "SBO storage must hold max-aligned captures");

void EventQueue::schedule_at(SimTime t, Action action) {
  ensure(t >= now_, "scheduling into the past");
  ensure(static_cast<bool>(action), "scheduling an empty action");
  std::uint32_t slot = 0;
  if (free_.empty()) {
    ensure(slab_.size() < kNone, "event slab full");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(action));
    next_.push_back(kNone);
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(action);
  }
  ++pending_;
  if (t - now_ < kWindow) {
    append(t, slot);
  } else {
    far_.push_back(Key{t, next_seq_++, slot});
    std::push_heap(far_.begin(), far_.end(), After{});
  }
}

void EventQueue::schedule_after(SimTime delay, Action action) {
  schedule_at(now_ + delay, std::move(action));
}

void EventQueue::append(SimTime t, std::uint32_t slot) {
  const std::size_t index = t & kMask;
  Bucket& bucket = buckets_[index];
  next_[slot] = kNone;
  if (bucket.head == kNone) {
    bucket.head = slot;
    occupied_[index / 64] |= std::uint64_t{1} << (index % 64);
  } else {
    next_[bucket.tail] = slot;
  }
  bucket.tail = slot;
}

SimTime EventQueue::next_time() const noexcept {
  if (pending_ == far_.size()) return far_.front().time;
  // The first occupied bucket at or after now_'s, wrapping once: the
  // buckets behind it hold the ticks furthest ahead.
  const std::size_t start = now_ & kMask;
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  while (bits == 0) {
    word = (word + 1) % kWords;
    bits = occupied_[word];
  }
  const std::size_t index = word * 64 + std::countr_zero(bits);
  return now_ + ((index - start) & kMask);
}

void EventQueue::advance_to(SimTime t) {
  now_ = t;
  // The clock never passes a pending event, so every far event is due
  // at or after t and the subtraction cannot wrap.
  while (!far_.empty() && far_.front().time - now_ < kWindow) {
    std::pop_heap(far_.begin(), far_.end(), After{});
    append(far_.back().time, far_.back().slot);
    far_.pop_back();
  }
}

void EventQueue::run_at(SimTime t) {
  if (t != now_) advance_to(t);
  const std::size_t index = t & kMask;
  Bucket& bucket = buckets_[index];
  const std::uint32_t slot = bucket.head;
  bucket.head = next_[slot];
  if (bucket.head == kNone) {
    occupied_[index / 64] &= ~(std::uint64_t{1} << (index % 64));
  }
  --pending_;
  // Out of the slab before it runs: the action may schedule events that
  // reallocate the slab or reuse this slot.
  Action action = std::move(slab_[slot]);
  free_.push_back(slot);
  ++executed_;
  action();
}

bool EventQueue::run_next() {
  if (empty()) return false;
  run_at(next_time());
  return true;
}

std::size_t EventQueue::run_until(SimTime t) {
  std::size_t count = 0;
  while (!empty()) {
    const SimTime next = next_time();
    if (next > t) break;
    run_at(next);
    ++count;
  }
  if (now_ < t) advance_to(t);
  return count;
}

std::size_t EventQueue::run_all(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && run_next()) ++count;
  return count;
}

}  // namespace dynvote::sim
