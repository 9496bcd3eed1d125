// TimerWheel: a hashed timer wheel for one runtime worker.
//
// Each pool worker owns exactly one wheel, shared by the processes it
// runs; it is deliberately single-threaded (no atomics) — cross-thread
// wakeups are the transport's job, the wheel only answers "what is due
// by time t?".
//
// Structure: 256 slots of `tick_us` each; a timer at absolute deadline
// d hashes to slot (d / tick) % 256 and *keeps its absolute deadline*,
// so a timer further than one revolution away simply stays in its slot
// across cursor passes until its deadline is actually reached (the
// classic hashed — not hierarchical — wheel of Varghese & Lauck).
//
// advance(now) scans at most one revolution of slots between the last
// cursor position and `now`, collects every entry with deadline <= now,
// fires them in deterministic (deadline, token) order, and leaves the
// rest in place. Cancellation is O(slot occupancy) via a token -> slot
// index.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/transport.hpp"
#include "util/ids.hpp"

namespace dynvote::runtime {

class TimerWheel {
 public:
  /// `tick_us` is the slot granularity; timers land on their exact
  /// deadline regardless (the wheel only coarsens the *scan*, not the
  /// firing decision).
  explicit TimerWheel(SimTime tick_us = 1024);

  /// Schedules `action` at absolute time `deadline` (same clock as
  /// advance()). Returns a token for cancel(); tokens are unique per
  /// wheel and never 0.
  sim::TimerToken schedule_at(SimTime deadline, sim::TimerAction action);

  /// Cancels a pending timer. False if it already fired / was cancelled.
  bool cancel(sim::TimerToken token);

  /// Fires every timer with deadline <= now, in (deadline, token)
  /// order. Returns the number fired. `now` must not go backwards.
  std::size_t advance(SimTime now);

  /// Earliest pending deadline, if any — what an idle thread may sleep
  /// until. O(pending) worst case, but only consulted when idle.
  [[nodiscard]] std::optional<SimTime> next_deadline() const;

  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// Observation hook, called by advance() once per fired entry —
  /// (deadline, now) just before the entry's action runs — so the owner
  /// can measure fire slop without the wheel knowing about probes.
  /// Same single-threaded contract as every other method.
  void set_fire_hook(std::function<void(SimTime deadline, SimTime now)> hook) {
    fire_hook_ = std::move(hook);
  }

 private:
  struct Entry {
    SimTime deadline = 0;
    sim::TimerToken token = 0;
    sim::TimerAction action;
  };

  static constexpr std::size_t kSlots = 256;

  [[nodiscard]] std::size_t slot_of(SimTime deadline) const noexcept {
    return static_cast<std::size_t>((deadline / tick_) % kSlots);
  }

  SimTime tick_;
  std::uint64_t cursor_tick_ = 0;  // last scanned tick = floor(now / tick_)
  sim::TimerToken next_token_ = 1;
  std::size_t pending_ = 0;
  std::vector<Entry> slots_[kSlots];
  std::unordered_map<sim::TimerToken, std::size_t> token_slot_;
  std::function<void(SimTime, SimTime)> fire_hook_;
};

}  // namespace dynvote::runtime
