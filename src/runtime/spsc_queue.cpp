#include "runtime/spsc_queue.hpp"

#include <cstdint>

namespace dynvote::runtime {

// Compile-time smoke check: the queue instantiates in full for a plain
// item type (the runtime's link items are aggregates of ints,
// shared_ptrs, ProcessSets and closures — all nothrow-movable).
template class SpscQueue<std::uint64_t>;

}  // namespace dynvote::runtime
