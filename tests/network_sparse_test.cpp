// Property tests: the network's compact-slot routing must make sparse
// high raw ids behave exactly like dense ones.
//
// Network semantics depend only on registration order and on ProcessId
// *ordering*, never on raw id magnitude — so an order-preserving
// bijection of the id space must leave every observable (deliveries,
// drops, FIFO tails, components, virtual time) byte-identical. The
// sparse id set below straddles ProcessSet's inline/extension boundary
// at 256 and reaches the largest legal id, 2^20 - 1, where the raw-id
// lookup vector is widest. This guards the bug class of a loopback
// tri_index computed from raw ids (indexing one past the pair tables)
// at the scale where raw-id-sized pair tables would be quadratically
// wrong.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "util/ensure.hpp"

namespace dynvote::sim {
namespace {

class TestPayload final : public MessagePayload {
 public:
  explicit TestPayload(std::string tag, std::size_t size = 8)
      : tag_(std::move(tag)), size_(size) {}
  [[nodiscard]] std::string type_name() const override { return tag_; }
  [[nodiscard]] std::size_t encoded_size() const override { return size_; }

 private:
  std::string tag_;
  std::size_t size_;
};

class RecordingNode : public Node {
 public:
  using Node::Node;
  using Node::broadcast;
  using Node::send;

  std::vector<std::pair<ProcessId, std::string>> received;

 protected:
  void on_view(const View&) override {}
  void on_message(ProcessId from, PayloadPtr payload) override {
    received.emplace_back(from, payload->type_name());
  }
};

/// Everything observable about one scripted execution, with process
/// identities reduced to registration indices so runs over different id
/// spaces compare directly.
struct Observation {
  // received[i] = sequence of (sender index, tag) at process index i.
  std::vector<std::vector<std::pair<std::size_t, std::string>>> received;
  std::vector<std::vector<std::size_t>> components;  // final live components
  std::vector<std::optional<SimTime>> sampled_tails;
  NetworkStats stats;
  SimTime final_time = 0;

  bool operator==(const Observation& other) const {
    return received == other.received && components == other.components &&
           sampled_tails == other.sampled_tails &&
           stats.messages_sent == other.stats.messages_sent &&
           stats.messages_delivered == other.stats.messages_delivered &&
           stats.messages_dropped == other.stats.messages_dropped &&
           stats.messages_unroutable == other.stats.messages_unroutable &&
           stats.messages_lost_in_flight ==
               other.stats.messages_lost_in_flight &&
           stats.bytes_sent == other.stats.bytes_sent &&
           final_time == other.final_time;
  }
};

/// Runs one fixed fault-and-traffic script over the given id space
/// (ids must be strictly increasing so registration order matches id
/// order in both runs) and returns everything observable.
Observation run_script(const std::vector<std::uint32_t>& raw_ids) {
  const std::size_t n = raw_ids.size();
  Simulator sim{SimulatorOptions{.seed = 4242}};
  std::vector<RecordingNode*> nodes;
  std::map<ProcessId, std::size_t> index_of;
  ProcessSet everyone;
  for (std::size_t i = 0; i < n; ++i) {
    const ProcessId p{raw_ids[i]};
    auto node = std::make_unique<RecordingNode>(sim, p);
    nodes.push_back(node.get());
    sim.add_node(std::move(node));
    index_of[p] = i;
    everyone.insert(p);
  }
  sim.merge_all();
  for (auto* node : nodes) {
    node->deliver_view(View{ViewId(1), everyone});
  }
  auto id = [&](std::size_t i) { return ProcessId{raw_ids[i]}; };
  auto group = [&](std::initializer_list<std::size_t> indices) {
    ProcessSet out;
    for (std::size_t i : indices) out.insert(id(i));
    return out;
  };
  auto payload = [](std::string tag) {
    return std::make_shared<TestPayload>(std::move(tag));
  };

  Observation obs;

  // Phase A: ring traffic plus a loopback from the largest id (the
  // historical tri_index overflow victim).
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i]->send(id((i + 1) % n), payload("ring" + std::to_string(i)));
  }
  nodes[n - 1]->send(id(n - 1), payload("self"));
  sim.run_to_quiescence();

  // Phase B: pile up a FIFO tail, partition, observe which tails the
  // epoch bumps cleared, and route traffic inside each side.
  for (int i = 0; i < 20; ++i) {
    nodes[0]->send(id(1), payload("pile" + std::to_string(i)));
  }
  obs.sampled_tails.push_back(sim.network().fifo_tail(id(0), id(1)));
  sim.set_components({group({0, 1, 2}), group({3, 4, 5})});
  obs.sampled_tails.push_back(sim.network().fifo_tail(id(0), id(1)));
  obs.sampled_tails.push_back(sim.network().fifo_tail(id(0), id(3)));
  nodes[0]->send(id(3), payload("across"));  // unroutable
  nodes[3]->send(id(4), payload("inside"));
  sim.run_to_quiescence();

  // Phase C: in-flight loss across a cut, then a heal that must not
  // resurrect it.
  sim.merge_all();
  nodes[1]->send(id(4), payload("doomed"));
  sim.set_components({group({0, 1, 2}), group({3, 4, 5})});
  sim.merge_all();
  sim.run_to_quiescence();

  // Phase D: crash/recover with sparse ids.
  sim.crash(id(2));
  nodes[1]->send(id(2), payload("to-crashed"));
  sim.run_to_quiescence();
  sim.recover(id(2));
  obs.sampled_tails.push_back(sim.network().fifo_tail(id(1), id(2)));
  sim.merge_all();
  nodes[1]->send(id(2), payload("after-recovery"));
  sim.run_to_quiescence();

  // Reduce everything to indices.
  obs.received.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [from, tag] : nodes[i]->received) {
      obs.received[i].emplace_back(index_of.at(from), tag);
    }
  }
  for (const ProcessSet& component : sim.network().live_components()) {
    std::vector<std::size_t> indices;
    for (ProcessId p : component) indices.push_back(index_of.at(p));
    obs.components.push_back(std::move(indices));
  }
  obs.stats = sim.network().stats();
  obs.final_time = sim.now();
  return obs;
}

// Strictly increasing: both sides of ProcessSet's inline limit (256), an
// adjacent pair, and the largest legal id.
const std::vector<std::uint32_t> kSparseIds = {
    3, 255, 4095, 4096, 70001, kProcessIdLimit - 1};
const std::vector<std::uint32_t> kDenseIds = {0, 1, 2, 3, 4, 5};

TEST(NetworkSparseIds, SparseAndDenseIdSpacesObserveIdenticalExecutions) {
  const Observation dense = run_script(kDenseIds);
  const Observation sparse = run_script(kSparseIds);
  EXPECT_EQ(dense.received, sparse.received);
  EXPECT_EQ(dense.components, sparse.components);
  EXPECT_EQ(dense.sampled_tails, sparse.sampled_tails);
  EXPECT_EQ(dense.final_time, sparse.final_time);
  EXPECT_EQ(dense.stats.messages_delivered, sparse.stats.messages_delivered);
  EXPECT_EQ(dense.stats.messages_unroutable, sparse.stats.messages_unroutable);
  EXPECT_EQ(dense.stats.messages_lost_in_flight,
            sparse.stats.messages_lost_in_flight);
  EXPECT_TRUE(dense == sparse);
}

TEST(NetworkSparseIds, ScriptExercisesEveryDropAndDeliveryPath) {
  // Guard against the comparison above passing vacuously: the script
  // must actually produce deliveries, unroutable drops, in-flight
  // losses, and both a kept and a cleared FIFO tail.
  const Observation obs = run_script(kSparseIds);
  EXPECT_GT(obs.stats.messages_delivered, 0u);
  EXPECT_GT(obs.stats.messages_unroutable, 0u);
  EXPECT_GT(obs.stats.messages_lost_in_flight, 0u);
  ASSERT_EQ(obs.sampled_tails.size(), 4u);
  EXPECT_TRUE(obs.sampled_tails[0].has_value());  // tail piled up on 0->1
  // 0 and 1 stayed on the same side of the cut, so their tail survives;
  // the severed 0-3 pair and the crashed 2's links must not keep one.
  EXPECT_TRUE(obs.sampled_tails[1].has_value());
  EXPECT_FALSE(obs.sampled_tails[2].has_value());
  EXPECT_FALSE(obs.sampled_tails[3].has_value());
}

TEST(NetworkSparseIds, LoopbackFromTheLargestSparseIdDeliversToSelf) {
  // The loopback regression at sparse scale: tri_index(s, s) for the
  // largest slot indexes one past the pair tables, so a self-send must
  // never consult them — here from the largest legal raw id.
  Simulator sim{SimulatorOptions{.seed = 7}};
  const ProcessId big{kProcessIdLimit - 1};
  const ProcessId small{17};
  auto* small_node = new RecordingNode(sim, small);
  auto* big_node = new RecordingNode(sim, big);
  sim.add_node(std::unique_ptr<Node>(small_node));
  sim.add_node(std::unique_ptr<Node>(big_node));
  sim.merge_all();
  ProcessSet everyone;
  everyone.insert(small);
  everyone.insert(big);
  small_node->deliver_view(View{ViewId(1), everyone});
  big_node->deliver_view(View{ViewId(1), everyone});
  big_node->send(big, std::make_shared<TestPayload>("self"));
  sim.run_to_quiescence();
  ASSERT_EQ(big_node->received.size(), 1u);
  EXPECT_EQ(big_node->received[0].first, big);
}

TEST(NetworkSparseIds, PairStateSurvivesLaterSparseRegistrations) {
  // add_process must only ever append pair entries: an epoch captured
  // by an in-flight message, and a FIFO tail, must survive a later
  // registration that grows the tables.
  Simulator sim{SimulatorOptions{.seed = 11}};
  const ProcessId a{5000};
  const ProcessId b{60000};
  auto* na = new RecordingNode(sim, a);
  auto* nb = new RecordingNode(sim, b);
  sim.add_node(std::unique_ptr<Node>(na));
  sim.add_node(std::unique_ptr<Node>(nb));
  sim.merge_all();
  ProcessSet ab;
  ab.insert(a);
  ab.insert(b);
  na->deliver_view(View{ViewId(1), ab});
  nb->deliver_view(View{ViewId(1), ab});
  na->send(b, std::make_shared<TestPayload>("in-flight"));
  const auto tail_before = sim.network().fifo_tail(a, b);
  ASSERT_TRUE(tail_before.has_value());

  // Grow the tables mid-flight.
  const ProcessId late{700000};
  auto* nl = new RecordingNode(sim, late);
  sim.add_node(std::unique_ptr<Node>(nl));
  EXPECT_EQ(sim.network().fifo_tail(a, b), tail_before);

  sim.run_to_quiescence();
  ASSERT_EQ(nb->received.size(), 1u);
  EXPECT_EQ(nb->received[0].second, "in-flight");
}

TEST(NetworkSparseIds, FifoTailForUnknownOrSelfPairsIsEmpty) {
  Simulator sim{SimulatorOptions{.seed = 13}};
  const ProcessId a{123456};
  auto* na = new RecordingNode(sim, a);
  sim.add_node(std::unique_ptr<Node>(na));
  EXPECT_FALSE(sim.network().fifo_tail(a, ProcessId{999999}).has_value());
  EXPECT_FALSE(sim.network().fifo_tail(ProcessId{999999}, a).has_value());
  EXPECT_FALSE(sim.network().fifo_tail(a, a).has_value());
  EXPECT_FALSE(sim.network().alive(ProcessId{999999}));
  EXPECT_FALSE(sim.network().connected(a, ProcessId{999999}));
}

}  // namespace
}  // namespace dynvote::sim
