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

void EventQueue::schedule_at(SimTime t, Action action) {
  static_assert(sizeof(Key) == 24, "a sift moves 24-byte keys");
  ensure(t >= now_, "scheduling into the past");
  ensure(static_cast<bool>(action), "scheduling an empty action");
  std::uint32_t slot = 0;
  if (free_.empty()) {
    ensure(slab_.size() < UINT32_MAX, "event slab full");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(action));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(action);
  }
  heap_.push_back(Key{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), After{});
}

void EventQueue::schedule_after(SimTime delay, Action action) {
  schedule_at(now_ + delay, std::move(action));
}

bool EventQueue::run_next() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), After{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Out of the slab before it runs: the action may schedule events that
  // reallocate the slab or reuse this slot.
  Action action = std::move(slab_[key.slot]);
  free_.push_back(key.slot);
  now_ = key.time;
  ++executed_;
  action();
  return true;
}

std::size_t EventQueue::run_until(SimTime t) {
  std::size_t count = 0;
  while (!heap_.empty() && heap_.front().time <= t) {
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
