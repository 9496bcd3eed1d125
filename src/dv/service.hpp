// Public facade: the primary-component maintenance service.
//
// This is the API an application embeds (the paper's intended use:
// replication algorithms, transaction managers, group-communication
// toolkits). One PrimaryComponentService fronts one process's protocol
// instance; the application asks "am I in the primary component?" and
// registers a listener for transitions.
//
// The protocol factory builds any protocol variant in the library by
// name — the harness, benches and examples all construct protocols
// through it.
#pragma once

#include <memory>
#include <string>

#include <vector>

#include "dv/basic_protocol.hpp"
#include "dv/protocol_base.hpp"
#include "dv/protocol_node.hpp"

namespace dynvote {

/// Every protocol variant in the library: the paper's two protocols and
/// the six comparison baselines.
enum class ProtocolKind {
  kBasic,              // paper section 4 (figure 1)
  kOptimized,          // paper section 5 (figures 2-3)
  kCentralized,        // paper section 4.4: coordinator-based variant
  kStaticMajority,     // static voting baseline
  kNaiveDynamic,       // no attempt step — INCONSISTENT by design
  kLastAttemptOnly,    // paper section 4.6 strawman — INCONSISTENT by design
  kBlockingDynamic,    // 2PC-style: waits for ALL attempters
  kHybridJm,           // Jajodia-Mutchler hybrid static/dynamic
  kThreePhaseRecovery  // explicit 3-phase resolution: 5 rounds
};

[[nodiscard]] const char* to_string(ProtocolKind kind) noexcept;

/// All kinds, in a stable order (for sweeps over protocols).
[[nodiscard]] const std::vector<ProtocolKind>& all_protocol_kinds();

/// True for the protocols that guarantee a total order on primary
/// components; false for the two deliberately broken baselines.
[[nodiscard]] bool is_consistent_protocol(ProtocolKind kind) noexcept;

/// Constructs a protocol node of the given kind over any Transport
/// (the simulator's or the pool runtime's). The DvConfig is
/// interpreted by each variant as documented on its class; the static
/// baseline uses only `core`.
[[nodiscard]] std::unique_ptr<ProtocolNode> make_protocol(
    ProtocolKind kind, sim::Transport& transport, ProcessId id,
    DvConfig config);

/// Application-facing handle over one process's protocol instance.
class PrimaryComponentService {
 public:
  /// Borrows the protocol node (owned by the Simulator).
  explicit PrimaryComponentService(ProtocolNode& protocol)
      : protocol_(&protocol) {}

  /// Is this process currently in the primary component?
  [[nodiscard]] bool in_primary() const { return protocol_->is_primary(); }

  /// The session of the current primary component, if this process is in
  /// it.
  [[nodiscard]] const std::optional<Session>& primary() const {
    return protocol_->primary_session();
  }

  /// Registers the application callback for primary transitions. At most
  /// one listener per service.
  void set_listener(PrimaryListener* listener) {
    protocol_->set_primary_listener(listener);
  }

  [[nodiscard]] ProcessId process() const { return protocol_->id(); }

 private:
  ProtocolNode* protocol_;
};

}  // namespace dynvote
