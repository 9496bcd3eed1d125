// Targeted fault injection for scripted scenarios.
//
// The paper's worked examples hinge on precisely-timed detachments:
// "c detaches before receiving the last message" (section 1), "b
// detaches before performing the attempt step" (section 4.6). The
// FaultInjector expresses these as message-level rules — drop the next k
// messages of a given payload type addressed to a given process — which
// compose with partitions to reproduce each execution exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "util/ids.hpp"

namespace dynvote {

class FaultInjector {
 public:
  /// Installs itself as the network's drop filter (replacing any other).
  explicit FaultInjector(sim::Network& network);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Drops messages whose payload type contains `type_substr` and whose
  /// destination is `to`. `count` < 0 means unlimited; self-deliveries
  /// are never dropped (a process cannot lose a message to itself).
  /// Returns a rule id.
  int drop_to(ProcessId to, std::string type_substr, int count = -1);

  /// Same, additionally matching the sender.
  int drop_link(ProcessId from, ProcessId to, std::string type_substr,
                int count = -1);

  /// Removes one rule / all rules / the rules with no drops left.
  void remove(int rule_id);
  void clear();
  void remove_spent();

  /// Messages dropped by rule so far.
  [[nodiscard]] std::uint64_t dropped(int rule_id) const;
  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    return total_dropped_;
  }

 private:
  struct Rule {
    int id;
    std::optional<ProcessId> from;
    ProcessId to;
    std::string type_substr;
    int remaining;  // < 0 = unlimited
    std::uint64_t hits = 0;
  };

  bool should_drop(const sim::Envelope& env);

  sim::Network& network_;
  std::vector<Rule> rules_;
  int next_id_ = 1;
  std::uint64_t total_dropped_ = 0;
};

}  // namespace dynvote
