// Discrete-event scheduler.
//
// The whole library runs on virtual time: an event is a closure scheduled
// at a SimTime; ties are broken by insertion sequence so executions are
// fully deterministic (same seed => same trace, byte for byte).
//
// Storage is split in two. A flat binary min-heap orders 24-byte keys
// (time, token, slot), and the actions live in a slab indexed by slot,
// with a free list of vacated slots. A heap sift moves keys only, never
// the 112-byte callables (whose move is an indirect call): each action
// moves once into its slot when scheduled and once out of it just
// before it runs. The callback type keeps captures up to 88 bytes
// inline, so the common scheduling path — including the network's
// delivery closure with its full Envelope — allocates nothing once the
// slab has grown. cancel() scans the keys linearly, frees the slot and
// marks the key dead; dead keys are discarded lazily when they surface
// at the heap top.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/ids.hpp"
#include "util/inline_function.hpp"

namespace dynvote::sim {

/// Token identifying a scheduled event so it can be cancelled.
using EventToken = std::uint64_t;

class EventQueue {
 public:
  /// Inline capacity (the 88-byte InlineFunction default) covers the
  /// network's delivery closure (an Envelope plus a pointer and an
  /// epoch, 64 bytes) with headroom; larger captures fall back to one
  /// heap box, never silently truncate. Same type as sim::TimerAction,
  /// so Transport::schedule_timer forwards into the queue move-only.
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
  EventToken schedule_at(SimTime t, Action action);

  /// Schedules `action` `delay` ticks from now.
  EventToken schedule_after(SimTime delay, Action action);

  /// Cancels a pending event. Returns false if it already ran or was
  /// cancelled (cancelling twice is harmless). O(pending): a scan over
  /// the heap keys, which is fine for the cold timer-superseding path.
  bool cancel(EventToken token);

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

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }

 private:
  /// Heap key of one pending event; `slot` indexes slab_, or is kDead
  /// once the event was cancelled (its slot is already free).
  struct Key {
    SimTime time = 0;
    EventToken token = 0;
    std::uint32_t slot = 0;
  };
  static constexpr std::uint32_t kDead = UINT32_MAX;

  /// std::push_heap/pop_heap build a max-heap; order keys so the
  /// earliest (time, token) surfaces at the top.
  struct After {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return b.time < a.time || (b.time == a.time && b.token < a.token);
    }
  };

  /// Discards dead keys sitting at the heap top.
  void skim_tombstones();

  SimTime now_ = 0;
  EventToken next_token_ = 1;
  std::size_t executed_ = 0;
  std::size_t live_ = 0;  // heap keys that are not dead
  std::vector<Key> heap_;
  std::vector<Action> slab_;         // empty where the slot is free
  std::vector<std::uint32_t> free_;  // vacated slab slots, reused LIFO
};

}  // namespace dynvote::sim
