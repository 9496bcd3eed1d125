#include "sim/node.hpp"

#include <algorithm>
#include <utility>

#include "sim/simulator.hpp"
#include "util/ensure.hpp"

namespace dynvote::sim {

Node::Node(Transport& transport, ProcessId id)
    : transport_(transport), id_(id) {}

Node::Node(Simulator& sim, ProcessId id) : Node(sim.transport(), id) {}

Node::~Node() = default;

void Node::deliver_view(const View& view) {
  if (!alive_) return;
  ensure(view.members.contains(id_), "view delivered to non-member");
  if (view_ && view.id <= view_->id) return;  // stale view report
  view_ = view;

  // Messages buffered for this view become deliverable; older ones are
  // from views this process skipped and are gone for good.
  std::vector<Envelope> ready;
  std::vector<Envelope> keep;
  for (auto& env : buffered_) {
    if (env.view == view.id) {
      ready.push_back(std::move(env));
    } else if (env.view > view.id) {
      keep.push_back(std::move(env));
    }
  }
  buffered_ = std::move(keep);

  on_view(view);
  for (auto& env : ready) {
    if (!alive_) break;
    if (!view_ || view_->id != env.view) break;  // protocol moved on
    on_message(env.from, std::move(env.payload));
  }
}

void Node::deliver_message(Envelope env) {
  if (!alive_) return;
  if (!view_ || env.view > view_->id) {
    buffered_.push_back(std::move(env));
    return;
  }
  if (env.view < view_->id) return;  // stale: sender was in an older view
  on_message(env.from, std::move(env.payload));
}

void Node::crash() {
  if (!alive_) return;
  alive_ = false;
  view_.reset();
  buffered_.clear();
  on_crash();
}

void Node::recover() {
  if (alive_) return;
  alive_ = true;
  on_recover();
}

void Node::send(ProcessId to, PayloadPtr payload) {
  ensure(view_.has_value(), "send outside a view");
  transport_.send(Envelope{id_, to, view_->id, std::move(payload)});
}

void Node::broadcast(PayloadPtr payload) {
  ensure(view_.has_value(), "broadcast outside a view");
  for (ProcessId member : view_->members) {
    transport_.send(Envelope{id_, member, view_->id, payload});
  }
}

StableStorage& Node::storage() { return transport_.storage(id_); }

SimTime Node::now() const { return transport_.now(); }

obs::TraceSink& Node::trace() { return transport_.trace(id_); }

obs::MetricsRegistry& Node::metrics() { return transport_.metrics(id_); }

std::uint64_t Node::lamport_tick() { return transport_.lamport_tick(id_); }

std::uint64_t Node::last_topology_eid() const {
  return transport_.last_topology_eid(id_);
}

}  // namespace dynvote::sim
