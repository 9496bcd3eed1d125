// Reference event queue for the differential tests: the binary key heap
// that sim::EventQueue's tick buckets replaced. Every event carries a
// (time, insertion sequence) key and a heap sift orders them, O(log n)
// per event; kept only to check that the buckets run the same events in
// the same order with the same clock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/ensure.hpp"

namespace dynvote::sim::reference {

class HeapEventQueue {
 public:
  using Action = EventQueue::Action;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  void schedule_at(SimTime t, Action action) {
    ensure(t >= now_, "scheduling into the past");
    ensure(static_cast<bool>(action), "scheduling an empty action");
    std::uint32_t slot = 0;
    if (free_.empty()) {
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

  void schedule_after(SimTime delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  bool run_next() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    const Key key = heap_.back();
    heap_.pop_back();
    Action action = std::move(slab_[key.slot]);
    free_.push_back(key.slot);
    now_ = key.time;
    ++executed_;
    action();
    return true;
  }

  std::size_t run_until(SimTime t) {
    std::size_t count = 0;
    while (!heap_.empty() && heap_.front().time <= t) {
      run_next();
      ++count;
    }
    if (now_ < t) now_ = t;
    return count;
  }

  std::size_t run_all(std::size_t max_events) {
    std::size_t count = 0;
    while (count < max_events && run_next()) ++count;
    return count;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }

 private:
  struct Key {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  /// std::push_heap/pop_heap build a max-heap; order keys so the
  /// earliest (time, seq) surfaces at the top.
  struct After {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return b.time < a.time || (b.time == a.time && b.seq < a.seq);
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t executed_ = 0;
  std::vector<Key> heap_;
  std::vector<Action> slab_;
  std::vector<std::uint32_t> free_;
};

}  // namespace dynvote::sim::reference
