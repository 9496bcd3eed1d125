// RuntimeEventcount: the park/notify primitive of the pool runtime.
//
// Each pool worker (runtime/pool_transport.hpp) puts its idle event
// loop to sleep with the eventcount pattern: producers bump a sequence
// word *after* pushing work and notify; the consumer reads the word
// *before* scanning its queues and parks on the old value, so a wakeup
// can be missed only if the scan already saw the work. This header
// keeps that pattern out of the transport, in one audited place.
//
// Two park flavors:
//
//  * wait(seen): indefinite park on std::atomic::wait — used when the
//    owner has no pending timer, so only a producer can create work;
//  * wait_until(seen, deadline, now): bounded park used when a timer
//    deadline pends. C++20 atomic wait has no timeout, so the bound is
//    realized as a loop of short sleep slices with the sequence word
//    re-checked between slices. The invariant that makes the bound
//    honest: the remaining budget is recomputed from the CURRENT clock
//    on every iteration, so a spurious wake close to the deadline
//    re-parks only for the remainder — never for the full slice cap.
//    (The pre-extraction transport code sized each nap from a clock
//    reading taken before the previous sleep, so a wake near the
//    deadline could oversleep it by a whole slice; the regression test
//    RuntimeEventcount.BoundedWaitRechecksDeadline pins the fix.)
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "util/ids.hpp"

namespace dynvote::runtime {

class RuntimeEventcount {
 public:
  /// Longest single sleep slice of a bounded park, microseconds. Also
  /// bounds how long a bounded park can ignore a notify: sleep slices
  /// are not interruptible, so a message that arrives mid-slice waits
  /// out the remainder of that slice at most.
  static constexpr SimTime kMaxNapSliceUs = 200;

  /// The consumer's pre-scan read: park tokens must be taken BEFORE
  /// scanning for work (any push that lands after this read also bumps
  /// the word, so the wait cannot miss it).
  [[nodiscard]] std::uint32_t prepare() const noexcept {
    return seq_.load(std::memory_order_acquire);
  }

  /// Producer side: call AFTER the work is visible (pushed). Release on
  /// the bump orders the push before the consumer's acquire re-read.
  void notify() noexcept {
    seq_.fetch_add(1, std::memory_order_release);
    seq_.notify_all();
  }

  /// Parks until the sequence moves past `seen`. May return spuriously
  /// (the platform wait may); callers rescan regardless.
  void wait(std::uint32_t seen) {
    seq_.wait(seen, std::memory_order_acquire);
  }

  /// How long the next sleep slice of a bounded park may be: the time
  /// left until `deadline_us`, clamped to `cap_us` — and zero once the
  /// deadline has passed. Pure, so the deadline-recheck contract is
  /// testable without threads.
  [[nodiscard]] static SimTime nap_slice_us(
      SimTime now_us, SimTime deadline_us,
      SimTime cap_us = kMaxNapSliceUs) noexcept {
    if (now_us >= deadline_us) return 0;
    return std::min(deadline_us - now_us, cap_us);
  }

  /// Bounded park: returns when the sequence moves past `seen` OR
  /// `now_us()` reaches `deadline_us`, whichever is first (plus at most
  /// one sleep slice of slack — slices are not interruptible). `now_us`
  /// is the owner's clock, re-read after every wake so the remaining
  /// budget shrinks monotonically; `cap_us` is injectable for tests.
  template <typename NowUs>
  void wait_until(std::uint32_t seen, SimTime deadline_us, NowUs&& now_us,
                  SimTime cap_us = kMaxNapSliceUs) {
    while (seq_.load(std::memory_order_acquire) == seen) {
      const SimTime slice = nap_slice_us(now_us(), deadline_us, cap_us);
      if (slice == 0) return;
      std::this_thread::sleep_for(std::chrono::microseconds(slice));
    }
  }

 private:
  std::atomic<std::uint32_t> seq_{0};
};

}  // namespace dynvote::runtime
