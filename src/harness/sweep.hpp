// Deterministic parallel seed-sweep runner.
//
// Monte-Carlo experiments (bench_availability, bench_scale, the random
// schedules of bench_ambiguous_growth) run many fully independent
// simulations — one per (seed, config) cell — and then aggregate. Each
// Simulator is self-contained (own EventQueue, Network, RNG, trace
// sink, metrics registry), so the cells can run on a thread pool without
// sharing anything.
//
// The determinism contract survives parallelism by construction:
//   1. each job computes exactly what the serial loop computed for the
//      same index — threads never share mutable state;
//   2. results land in index-addressed slots, never in completion order;
//   3. callers reduce the slots sequentially, in index order.
// Hence the aggregate is byte-identical for 1 thread and N threads (a
// test drives both and compares). Floating-point sums keep their serial
// association because only the reduction order matters, and it is fixed.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace dynvote {

/// Worker count for a sweep: `requested` if nonzero, else the
/// DYNVOTE_THREADS environment variable, else hardware_concurrency
/// (never 0). A value of 1 runs jobs inline on the calling thread.
[[nodiscard]] std::size_t sweep_thread_count(std::size_t requested = 0);

/// Runs job(i) for every i in [0, count), distributing indices across
/// sweep_thread_count(threads) workers via an atomic cursor. Blocks
/// until all jobs finish. If any job throws, the sweep stops handing
/// out new indices and the first exception (by completion order) is
/// rethrown after the pool joins. job must not touch shared mutable
/// state except its own index-addressed result slot.
void sweep_run(std::size_t count, std::size_t threads,
               const std::function<void(std::size_t)>& job);

/// Maps [0, count) through `fn` in parallel and returns the results in
/// index order. T must be default-constructible and movable.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> sweep_map(std::size_t count, std::size_t threads,
                                       Fn&& fn) {
  std::vector<T> results(count);
  sweep_run(count, threads, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace dynvote
