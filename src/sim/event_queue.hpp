// Discrete-event scheduler.
//
// The whole library runs on virtual time: an event is a closure scheduled
// at a SimTime; ties are broken by insertion sequence so executions are
// fully deterministic (same seed => same trace, byte for byte).
//
// Actions live in a slab indexed by slot, with a free list of vacated
// slots: each 112-byte callable (whose move is an indirect call) moves
// once into its slot when scheduled and once out of it just before it
// runs. The callback type keeps captures up to 88 bytes inline, so the
// common scheduling path — including the network's delivery closure
// with its full Envelope — allocates nothing once the slab has grown.
//
// Ordering is by tick buckets, not by comparison. An event due fewer
// than kWindow ticks ahead appends its slot to the FIFO chain of its
// tick, and an occupancy bitmap finds the next tick that holds events,
// so scheduling and popping cost O(1) whatever the number pending. The
// window covers every delay the library schedules (message latency and
// view detection); only an event kWindow or more ticks ahead waits in a
// (time, insertion sequence) key heap, and whenever the clock moves,
// the far events now inside the window move into their buckets in key
// order before anything can be appended to those ticks directly. A far
// event was therefore scheduled before every direct one at its tick, and
// each bucket holds exactly the events tied at one tick, in the order
// they were scheduled.
//
// Events cannot be cancelled: every scheduled event runs. Nothing in
// the library schedules an event it might later revoke (the protocols
// have no timers, sim/transport.hpp).
#pragma once

#include <array>
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

  static constexpr std::size_t kDefaultMaxEvents = 10'000'000;

  /// Ticks ahead of now() that the buckets cover; a power of two above
  /// the 40–160-tick message latency and the 200–800-tick view
  /// detection (static_asserts in sim/network.hpp and
  /// membership/membership_oracle.hpp hold both below it).
  static constexpr SimTime kWindow = 1024;

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
  /// Returns the number executed. empty() afterwards tells a drained
  /// queue from a tripped event budget (a runaway schedule).
  std::size_t run_all(std::size_t max_events = kDefaultMaxEvents);

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }

 private:
  static constexpr SimTime kMask = kWindow - 1;
  static constexpr std::size_t kWords = kWindow / 64;
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static_assert((kWindow & kMask) == 0 && kWords > 0,
                "the window is a power of two of at least 64 ticks");

  /// Key of an event kWindow or more ticks ahead; `seq` is its insertion
  /// sequence among the far events, the tie-break among equal times,
  /// and `slot` indexes slab_.
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

  /// The events of one tick, chained through next_ in schedule order.
  struct Bucket {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const noexcept;
  /// Moves the clock to `t` and the far events now inside the window
  /// into their buckets.
  void advance_to(SimTime t);
  /// Appends `slot` to the bucket of tick `t` (within the window).
  void append(SimTime t, std::uint32_t slot);
  /// Runs the first event of the bucket of tick `t`, the earliest
  /// pending one.
  void run_at(SimTime t);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t executed_ = 0;
  std::size_t pending_ = 0;
  // Every bucketed event is due in [now_, now_ + kWindow), so a tick's
  // bucket is buckets_[tick & kMask]; bit i of occupied_ is set iff
  // buckets_[i] is non-empty. Every far event is due at or after
  // now_ + kWindow.
  std::array<Bucket, kWindow> buckets_{};
  std::array<std::uint64_t, kWords> occupied_{};
  std::vector<Key> far_;
  std::vector<Action> slab_;          // empty where the slot is free
  std::vector<std::uint32_t> next_;   // bucket chain link, by slab slot
  std::vector<std::uint32_t> free_;   // vacated slab slots, reused LIFO
};

}  // namespace dynvote::sim
