// Baseline: the Jajodia-Mutchler hybrid algorithm [13].
//
// The paper characterizes it in one line: "combines dynamic voting in
// large quorums with static voting in quorums of size three, ruling out
// quorums consisting of a single process". We model exactly that rule on
// top of our (consistent) session machinery, isolating the quorum-rule
// difference for the availability comparison:
//
//   * previous quorum S with |S| > 3: the usual dynamic-linear rule
//     (majority of S, or exactly half plus the top-ranked member);
//   * previous quorum S with |S| <= 3: static majority of S — at least
//     two members — so no singleton quorum can ever form;
//   * the recorded quorum never shrinks below three members: forming
//     with |M| < 3 keeps the previous (>= 3)-member set as the recorded
//     reference, as in the hybrid algorithm's static floor.
//
// Neither this rule nor ours dominates the other (paper section 1); the
// E5/E8 benches show schedules going each way.
#pragma once

#include "dv/basic_protocol.hpp"

namespace dynvote {

class HybridJmProtocol : public BasicDvProtocol {
 public:
  HybridJmProtocol(sim::Transport& transport, ProcessId id, DvConfig config);

 protected:
  [[nodiscard]] Eligibility decide(const QuorumCalculus& calc,
                                   const StepAggregates& agg,
                                   const ProcessSet& M) const override;
  [[nodiscard]] Session make_formed_record(const Session& actual) const override;

 private:
  [[nodiscard]] static bool hybrid_rule(const ProcessSet& S,
                                        const ProcessSet& M);
};

}  // namespace dynvote
