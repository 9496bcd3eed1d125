// Message envelope and payload base.
//
// The network transports opaque payloads; protocol layers define concrete
// payload types. Payloads are immutable and shared: a broadcast allocates
// one payload and every envelope references it, which both saves memory
// and mirrors multicast (paper 4.4 notes the symmetric protocol suits
// hardware multicast).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/ids.hpp"

namespace dynvote::sim {

/// Base class for everything sent over the simulated network.
///
/// `encoded_size` must return the serialized size in bytes; the metrics
/// layer uses it for the communication benchmarks (experiment E4), so
/// implementations encode themselves through util/codec rather than
/// guessing.
class MessagePayload {
 public:
  virtual ~MessagePayload() = default;

  /// Human-readable type tag, for traces ("info", "attempt", ...).
  [[nodiscard]] virtual std::string type_name() const = 0;

  /// Serialized size in bytes.
  [[nodiscard]] virtual std::size_t encoded_size() const = 0;

  /// True iff this is a dynvote::PhasedPayload (its one override), so
  /// the session protocols' per-message check needs no dynamic_cast.
  [[nodiscard]] virtual bool phased() const noexcept { return false; }

 protected:
  MessagePayload() = default;
  MessagePayload(const MessagePayload&) = default;
  MessagePayload& operator=(const MessagePayload&) = default;
};

/// A payload reference. Usually owning; but a pool broadcast's envelopes
/// own nothing: each carries an aliasing pointer with no control block
/// (`PayloadPtr(PayloadPtr(), raw)`, use_count() == 0), borrowed from the
/// one owning reference the sender's worker keeps until every member has
/// installed a newer view. Copying, moving or dropping such a pointer
/// touches no reference count; reading it after the receiver's next view
/// install is a use-after-free (sim/node.hpp, Node::on_message).
using PayloadPtr = std::shared_ptr<const MessagePayload>;

/// A routed message. `view` is the membership view the sender was in when
/// it sent the message; receivers process a message only within the same
/// view, which realizes the causal membership/message ordering the paper
/// requires in section 3.1.
///
/// `lamport` and `send_eid` are stamped by the network at send time:
/// the sender's Lamport clock (so the receiver can advance its own past
/// every event the sender had seen) and the trace-event id of the send
/// (so the delivery — or in-flight loss — can cite its cause). Senders
/// leave both zero.
///
/// `payload` owns the payload on the simulator and for the pool's
/// unicast sends; on a pool broadcast it only borrows it (see
/// PayloadPtr), so the envelope may outlive the payload once its
/// receiver has moved to a newer view and will drop it unread.
struct Envelope {
  ProcessId from;
  ProcessId to;
  ViewId view;
  PayloadPtr payload;
  std::uint64_t lamport = 0;
  std::uint64_t send_eid = 0;
};

}  // namespace dynvote::sim
