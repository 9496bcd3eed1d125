// Discrete-event scheduler.
//
// The whole library runs on virtual time: an event is a closure scheduled
// at a SimTime; ties are broken by insertion sequence so executions are
// fully deterministic (same seed => same trace, byte for byte).
//
// Storage is split in two. A flat binary min-heap orders 24-byte keys
// (time, insertion sequence, slot), and the actions live in a slab
// indexed by slot, with a free list of vacated slots. A heap sift moves
// keys only, never the 112-byte callables (whose move is an indirect
// call): each action moves once into its slot when scheduled and once
// out of it just before it runs. The callback type keeps captures up to
// 88 bytes inline, so the common scheduling path — including the
// network's delivery closure with its full Envelope — allocates nothing
// once the slab has grown.
//
// Events cannot be cancelled: every scheduled event runs. Nothing in
// the library schedules an event it might later revoke (the protocols
// have no timers, sim/transport.hpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/ids.hpp"
#include "util/inline_function.hpp"

namespace dynvote::sim {

class EventQueue {
 public:
  /// Inline capacity (the 88-byte InlineFunction default) covers the
  /// network's delivery closure (an Envelope plus a pointer and an
  /// epoch, 64 bytes) with headroom; larger captures fall back to one
  /// heap box, never silently truncate.
  using Action = InlineFunction<void()>;

  /// How a bounded run ended: the queue ran dry, or the event budget was
  /// exhausted with work still pending (a runaway schedule).
  enum class DrainStatus { kDrained, kEventLimit };

  struct DrainResult {
    std::size_t executed = 0;
    DrainStatus status = DrainStatus::kDrained;
  };

  static constexpr std::size_t kDefaultMaxEvents = 10'000'000;

  /// Current virtual time. Starts at 0 and only advances when events run.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` at absolute virtual time `t` (>= now()).
  void schedule_at(SimTime t, Action action);

  /// Schedules `action` `delay` ticks from now.
  void schedule_after(SimTime delay, Action action);

  /// Runs the earliest pending event, advancing the clock to it.
  /// Returns false if the queue is empty.
  bool run_next();

  /// Runs events until none remain at time <= `t`, then advances the
  /// clock to `t`. Returns the number of events executed.
  std::size_t run_until(SimTime t);

  /// Runs events until the queue drains or `max_events` executed.
  /// Returns the number executed. Prefer drain() when the caller must
  /// distinguish a drained queue from a tripped event budget.
  std::size_t run_all(std::size_t max_events = kDefaultMaxEvents);

  /// Like run_all, but reports whether the queue actually drained or the
  /// event budget stopped it with work still pending.
  DrainResult drain(std::size_t max_events = kDefaultMaxEvents);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }

 private:
  /// Heap key of one pending event; `seq` is its insertion sequence,
  /// the tie-break among equal times, and `slot` indexes slab_.
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
  std::vector<Action> slab_;         // empty where the slot is free
  std::vector<std::uint32_t> free_;  // vacated slab slots, reused LIFO
};

}  // namespace dynvote::sim
