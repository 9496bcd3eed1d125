#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/ensure.hpp"

namespace dynvote::sim {

// A capacity bump that silently fattens every slab slot must fail
// here, not in a profile.
static_assert(sizeof(EventQueue::Action) == 112,
              "Action = 88-byte SBO + 3 dispatch pointers");
static_assert(alignof(EventQueue::Action) == alignof(std::max_align_t),
              "SBO storage must hold max-aligned captures");

EventToken EventQueue::schedule_at(SimTime t, Action action) {
  static_assert(sizeof(Key) == 24, "a sift moves 24-byte keys");
  ensure(t >= now_, "scheduling into the past");
  ensure(static_cast<bool>(action), "scheduling an empty action");
  std::uint32_t slot = 0;
  if (free_.empty()) {
    ensure(slab_.size() < kDead, "event slab full");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(action));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(action);
  }
  const EventToken token = next_token_++;
  heap_.push_back(Key{t, token, slot});
  std::push_heap(heap_.begin(), heap_.end(), After{});
  ++live_;
  return token;
}

EventToken EventQueue::schedule_after(SimTime delay, Action action) {
  return schedule_at(now_ + delay, std::move(action));
}

bool EventQueue::cancel(EventToken token) {
  // Cancellation is a cold path (timers being superseded): marking the
  // key dead keeps the heap intact, and the key is discarded when it
  // reaches the top. The slot is freed at once.
  for (Key& key : heap_) {
    if (key.token == token && key.slot != kDead) {
      slab_[key.slot].reset();
      free_.push_back(key.slot);
      key.slot = kDead;
      --live_;
      return true;
    }
  }
  return false;
}

void EventQueue::skim_tombstones() {
  while (!heap_.empty() && heap_.front().slot == kDead) {
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    heap_.pop_back();
  }
}

bool EventQueue::run_next() {
  skim_tombstones();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), After{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Out of the slab before it runs: the action may schedule events that
  // reallocate the slab or reuse this slot.
  Action action = std::move(slab_[key.slot]);
  free_.push_back(key.slot);
  now_ = key.time;
  --live_;
  ++executed_;
  action();
  return true;
}

std::size_t EventQueue::run_until(SimTime t) {
  std::size_t count = 0;
  for (;;) {
    skim_tombstones();
    if (heap_.empty() || heap_.front().time > t) break;
    run_next();
    ++count;
  }
  if (now_ < t) now_ = t;
  return count;
}

std::size_t EventQueue::run_all(std::size_t max_events) {
  return drain(max_events).executed;
}

EventQueue::DrainResult EventQueue::drain(std::size_t max_events) {
  DrainResult result;
  while (result.executed < max_events && run_next()) ++result.executed;
  result.status = empty() ? DrainStatus::kDrained : DrainStatus::kEventLimit;
  return result;
}

}  // namespace dynvote::sim
