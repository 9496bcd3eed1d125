#include "harness/scenario.hpp"

#include <algorithm>

#include "util/ensure.hpp"

namespace dynvote {

FaultInjector::FaultInjector(sim::Network& network) : network_(network) {
  network_.set_drop_filter(
      [this](const sim::Envelope& env) { return should_drop(env); });
}

FaultInjector::~FaultInjector() { network_.clear_drop_filter(); }

int FaultInjector::drop_to(ProcessId to, std::string type_substr, int count) {
  const int id = next_id_++;
  rules_.push_back(Rule{id, std::nullopt, to, std::move(type_substr), count});
  return id;
}

int FaultInjector::drop_link(ProcessId from, ProcessId to,
                             std::string type_substr, int count) {
  const int id = next_id_++;
  rules_.push_back(Rule{id, from, to, std::move(type_substr), count});
  return id;
}

void FaultInjector::remove(int rule_id) {
  std::erase_if(rules_, [&](const Rule& r) { return r.id == rule_id; });
}

void FaultInjector::clear() { rules_.clear(); }

void FaultInjector::remove_spent() {
  std::erase_if(rules_, [](const Rule& r) { return r.remaining == 0; });
}

std::uint64_t FaultInjector::dropped(int rule_id) const {
  for (const Rule& rule : rules_) {
    if (rule.id == rule_id) return rule.hits;
  }
  return 0;
}

bool FaultInjector::should_drop(const sim::Envelope& env) {
  if (env.from == env.to) return false;  // loopback is process-internal
  for (Rule& rule : rules_) {
    if (rule.to != env.to) continue;
    if (rule.from && *rule.from != env.from) continue;
    if (rule.remaining == 0) continue;
    if (env.payload->type_name().find(rule.type_substr) == std::string::npos) {
      continue;
    }
    if (rule.remaining > 0) --rule.remaining;
    ++rule.hits;
    ++total_dropped_;
    return true;
  }
  return false;
}

}  // namespace dynvote
