// Run-level cost metrics (experiment E4).
//
// Aggregates network traffic, stable-storage traffic, and per-session
// round counts for one cluster execution. "Rounds" are reported by the
// protocols themselves (number of broadcast phases a formed session
// used) and reach group 0's metrics observer through the trace;
// messages/bytes come from the network, storage writes from the
// simulated disks.
#pragma once

#include <cstdint>

#include "harness/cluster.hpp"

namespace dynvote {

struct RunMetrics {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_loopback = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t storage_writes = 0;
  std::uint64_t formed_sessions = 0;  // distinct formed sessions
  double mean_rounds = 0;

  [[nodiscard]] static RunMetrics collect(Cluster& cluster);
};

}  // namespace dynvote
