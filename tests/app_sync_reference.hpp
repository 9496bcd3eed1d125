// Reference state transfer for the differential tests: the all-pairs
// loops that app::sync_states and app::sync_logs replaced. Each member,
// in list order, pulls from every other member in list order, so later
// members see the earlier ones' already-merged state. Quadratic, and
// kept only to check that the linear merges produce identical state.
// The KV loop works on materialized replicas (every entry written out),
// so it knows nothing of shared snapshots.
#pragma once

#include <algorithm>
#include <vector>

#include "app/replicated_kv.hpp"
#include "app/replicated_log.hpp"

namespace dynvote::app::reference {

template <typename T>
std::vector<T*> pointers(std::vector<T>& items) {
  std::vector<T*> out;
  for (T& item : items) out.push_back(&item);
  return out;
}

/// A KV replica's data written out, with its next write sequence.
struct MaterializedKv {
  KvEntries data;
  std::uint64_t next_sequence = 1;
};

inline MaterializedKv materialize(const KvState& state) {
  MaterializedKv out;
  state.for_each([&](const std::string& key, const VersionedValue& entry) {
    out.data.emplace_hint(out.data.end(), key, entry);
  });
  out.next_sequence = state.next_sequence;
  return out;
}

/// Byte-for-byte equality of two replicas' data: keys, values, version
/// stamps and the memberships the writes were accepted in.
inline bool same_data(const KvEntries& a, const KvEntries& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             x.second.value == y.second.value &&
                             x.second.version == y.second.version &&
                             x.second.written_in == y.second.written_in;
                    });
}

inline void all_pairs_sync(const std::vector<MaterializedKv*>& members) {
  for (MaterializedKv* a : members) {
    for (const MaterializedKv* b : members) {
      if (a == b) continue;
      for (const auto& [key, theirs] : b->data) {
        auto mine = a->data.find(key);
        if (mine == a->data.end() || mine->second.version < theirs.version) {
          a->data[key] = theirs;
        }
        a->next_sequence =
            std::max(a->next_sequence, theirs.version.sequence + 1);
      }
    }
  }
}

inline void all_pairs_sync(const std::vector<std::vector<LogEntry>*>& members) {
  for (std::vector<LogEntry>* a : members) {
    for (const std::vector<LogEntry>* b : members) {
      if (a == b) continue;
      for (const LogEntry& theirs : *b) {
        const auto it = std::lower_bound(
            a->begin(), a->end(), theirs.position,
            [](const LogEntry& e, const LogPosition& p) {
              return e.position < p;
            });
        if (it != a->end() && it->position == theirs.position) continue;
        a->insert(it, theirs);
      }
    }
  }
}

}  // namespace dynvote::app::reference
