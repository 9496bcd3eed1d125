// RuntimeEventcount: the park/notify primitive of the pool runtime.
//
// Each pool worker (runtime/pool_transport.hpp) puts its idle event
// loop to sleep with the eventcount pattern: producers bump a sequence
// word *after* pushing work and notify; the consumer reads the word
// *before* scanning its queues and parks on the old value, so a wakeup
// can be missed only if the scan already saw the work. This header
// keeps that pattern out of the transport, in one audited place.
//
// There is one park: wait(seen), an indefinite park on
// std::atomic::wait. No deadline bounds it, because a worker holds no
// timers (sim/transport.hpp): once its queues are empty only a producer
// can create work for it.
#pragma once

#include <atomic>
#include <cstdint>

namespace dynvote::runtime {

class RuntimeEventcount {
 public:
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

 private:
  std::atomic<std::uint32_t> seq_{0};
};

}  // namespace dynvote::runtime
