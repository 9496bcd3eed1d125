// Unit tests: the membership oracle — eventual agreement in stable
// components, non-atomic delivery, view suppression under churn, views
// on crash/recovery, injected (inaccurate) views.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "membership/membership_oracle.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace dynvote {
namespace {

class ViewWatcher : public sim::Node {
 public:
  using sim::Node::Node;
  std::vector<View> views;

 protected:
  void on_view(const View& view) override { views.push_back(view); }
  void on_message(ProcessId, sim::PayloadPtr) override {}
};

class MembershipTest : public ::testing::Test {
 protected:
  MembershipTest() {
    for (std::uint32_t i = 0; i < 5; ++i) {
      auto node = std::make_unique<ViewWatcher>(sim_, ProcessId(i));
      nodes_.push_back(node.get());
      sim_.add_node(std::move(node));
    }
    oracle_ = std::make_unique<MembershipOracle>(sim_);
  }

  ViewWatcher& node(std::uint32_t i) { return *nodes_[i]; }

  sim::Simulator sim_{sim::SimulatorOptions{.seed = 5}};
  std::vector<ViewWatcher*> nodes_;
  std::unique_ptr<MembershipOracle> oracle_;
};

TEST_F(MembershipTest, StableComponentConvergesToOneView) {
  sim_.merge_all();
  sim_.run_to_quiescence();
  ASSERT_FALSE(node(0).views.empty());
  const View last = node(0).views.back();
  EXPECT_EQ(last.members, ProcessSet::range(5));
  for (std::uint32_t i = 1; i < 5; ++i) {
    ASSERT_FALSE(node(i).views.empty());
    EXPECT_EQ(node(i).views.back(), last) << "node " << i;
  }
}

TEST_F(MembershipTest, PartitionYieldsDistinctViewsPerComponent) {
  sim_.merge_all();
  sim_.run_to_quiescence();
  sim_.set_components({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  sim_.run_to_quiescence();
  EXPECT_EQ(node(0).views.back().members, ProcessSet::of({0, 1, 2}));
  EXPECT_EQ(node(1).views.back().members, ProcessSet::of({0, 1, 2}));
  EXPECT_EQ(node(3).views.back().members, ProcessSet::of({3, 4}));
  EXPECT_EQ(node(4).views.back().members, ProcessSet::of({3, 4}));
  EXPECT_EQ(node(0).views.back().id, node(2).views.back().id);
  EXPECT_NE(node(0).views.back().id, node(3).views.back().id);
}

TEST_F(MembershipTest, UntouchedComponentGetsNoSpuriousView) {
  sim_.set_components({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  sim_.run_to_quiescence();
  const std::size_t views_before = node(3).views.size();
  // Splitting the other component must not disturb {3,4}.
  sim_.set_components({ProcessSet::of({0, 1}), ProcessSet::of({2})});
  sim_.run_to_quiescence();
  EXPECT_EQ(node(3).views.size(), views_before);
}

TEST_F(MembershipTest, RapidChangesMaySkipIntermediateViews) {
  sim_.merge_all();
  // Before any delivery happens, split again: nodes may jump straight to
  // the final view. In all cases the FINAL view must be the true one.
  sim_.set_components({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  sim_.run_to_quiescence();
  EXPECT_EQ(node(0).views.back().members, ProcessSet::of({0, 1}));
  EXPECT_EQ(node(2).views.back().members, ProcessSet::of({2, 3, 4}));
  // Views ids observed by one process are strictly increasing.
  for (std::uint32_t i = 0; i < 5; ++i) {
    for (std::size_t k = 1; k < node(i).views.size(); ++k) {
      EXPECT_LT(node(i).views[k - 1].id, node(i).views[k].id);
    }
  }
}

TEST_F(MembershipTest, CrashTriggersViewForSurvivors) {
  sim_.merge_all();
  sim_.run_to_quiescence();
  sim_.crash(ProcessId(4));
  sim_.run_to_quiescence();
  EXPECT_EQ(node(0).views.back().members, ProcessSet::of({0, 1, 2, 3}));
}

TEST_F(MembershipTest, RecoveredProcessGetsSingletonThenMergedView) {
  sim_.merge_all();
  sim_.run_to_quiescence();
  sim_.crash(ProcessId(4));
  sim_.run_to_quiescence();
  const std::size_t views_at_crash = node(4).views.size();
  sim_.recover(ProcessId(4));
  sim_.run_to_quiescence();
  ASSERT_GT(node(4).views.size(), views_at_crash);
  EXPECT_EQ(node(4).views.back().members, ProcessSet::of({4}));
  sim_.merge_all();
  sim_.run_to_quiescence();
  EXPECT_EQ(node(4).views.back().members, ProcessSet::range(5));
}

TEST_F(MembershipTest, InjectedViewReachesAllTargets) {
  sim_.merge_all();
  sim_.run_to_quiescence();
  // Deliberately inaccurate: claims {0,1} while all five are connected.
  oracle_->inject_view(ProcessSet::of({0, 1}));
  sim_.run_to_quiescence();
  EXPECT_EQ(node(0).views.back().members, ProcessSet::of({0, 1}));
  EXPECT_EQ(node(1).views.back().members, ProcessSet::of({0, 1}));
  EXPECT_EQ(node(2).views.back().members, ProcessSet::range(5));
}

TEST_F(MembershipTest, ViewIdsGloballyUnique) {
  sim_.merge_all();
  sim_.set_components({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  sim_.merge_all();
  sim_.run_to_quiescence();
  std::vector<std::pair<ViewId, ProcessSet>> seen;
  for (auto* n : nodes_) {
    for (const View& v : n->views) {
      for (const auto& [id, members] : seen) {
        if (id == v.id) {
          EXPECT_EQ(members, v.members);
        }
      }
      seen.emplace_back(v.id, v.members);
    }
  }
}

}  // namespace
}  // namespace dynvote
