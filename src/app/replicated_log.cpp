#include "app/replicated_log.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "util/ensure.hpp"

namespace dynvote::app {

std::string LogPosition::to_string() const {
  return "(" + std::to_string(epoch) + ":" + std::to_string(index) + ")";
}

std::string position_key(const LogPosition& position) {
  ensure(position.epoch >= 0, "log epochs are session numbers");
  char key[42];  // two 20-digit numbers, the colon, the terminator
  std::snprintf(key, sizeof key, "%020" PRId64 ":%020" PRIu64,
                position.epoch, position.index);
  return key;
}

std::vector<LogEntry> log_entries(const KvState& state) {
  std::vector<LogEntry> out;
  state.for_each([&out](const std::string&, const VersionedValue& entry) {
    out.push_back(LogEntry{
        LogPosition{entry.version.primary_number, entry.version.sequence},
        entry.value, entry.written_in});
  });
  return out;
}

std::optional<LogPosition> ReplicatedLog::append(ProcessId p,
                                                 std::string payload) {
  const Replica& target = store_.replica(p);
  const std::optional<Session>& session = target.primary();
  if (!session) return std::nullopt;
  // The epoch's sequencer assigns the index (driver-level model; see the
  // header note). Two primaries minting the same epoch number collide
  // here — which is exactly what the audit looks for.
  const LogPosition position{session->number, epoch_counters_[*session]++};
  const std::string key = position_key(position);
  ensure(target.state().find(key) == nullptr, "local position collision");
  store_.store(p, key, std::move(payload), position_stamp(position));
  return position;
}

}  // namespace dynvote::app
