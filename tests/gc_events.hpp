// The optimized protocol's garbage collection, counted from the trace:
// every record its §5.2 rules delete is a kAmbiguityResolved event whose
// rule starts with "5.2-", and every adoption a kAmbiguityAdopted event.
// The tests that assert GC ran read these counts.
#pragma once

#include <cstdint>
#include <string_view>

#include "harness/cluster.hpp"

namespace dynvote {

inline std::uint64_t count_ambiguity_events(Cluster& cluster, ProcessId p,
                                            obs::TraceEventKind kind,
                                            std::string_view rule_prefix) {
  std::uint64_t count = 0;
  for (const obs::TraceEvent& event : cluster.trace().events()) {
    if (event.kind == kind && event.a == p &&
        event.detail.starts_with(rule_prefix)) {
      ++count;
    }
  }
  return count;
}

/// Records `p` deleted by a §5.2 rule (formed by nobody).
inline std::uint64_t gc_deletions(Cluster& cluster, std::uint32_t p) {
  return count_ambiguity_events(cluster, ProcessId(p),
                                obs::TraceEventKind::kAmbiguityResolved,
                                "5.2-");
}

/// Records `p` resolved by adopting them as Last_Primary.
inline std::uint64_t gc_adoptions(Cluster& cluster, std::uint32_t p) {
  return count_ambiguity_events(cluster, ProcessId(p),
                                obs::TraceEventKind::kAmbiguityAdopted, "");
}

}  // namespace dynvote
