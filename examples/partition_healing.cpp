// Partition healing walkthrough: the paper's section-1 scenario, fully
// narrated. Prints the protocol's own event trace so you can watch the
// attempt step do its job message by message.
//
// The scenario: {a,b,c,d,e} split into {a,b,c} | {d,e}; a and b complete
// the {a,b,c} session while c detaches before receiving the last
// message; then a,b continue alone as {a,b} while c joins d,e. The
// ambiguous-session record at c is what keeps {c,d,e} from forming a
// second primary.
#include <cstdio>

#include "dv/basic_protocol.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"

using namespace dynvote;

namespace {

void print_trace(Cluster& cluster, SimTime since) {
  for (const obs::TraceEvent& event : cluster.trace().events()) {
    if (event.time < since) continue;
    std::printf("  %s\n", obs::describe(event).c_str());
  }
}

}  // namespace

int main() {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 5;
  options.sim.seed = 31;
  Cluster cluster(options);
  FaultInjector faults(cluster.sim().network());

  std::puts("step 0: all five processes form the initial primary");
  cluster.start();
  print_trace(cluster, 0);

  std::puts("\nstep 1: partition {a,b,c} | {d,e}; c's copies of the attempt");
  std::puts("        round are lost (c 'detaches before the last message')");
  SimTime mark = cluster.sim().now();
  faults.drop_to(ProcessId(2), "dv.attempt", 2);
  cluster.partition({ProcessSet::of({0, 1, 2}), ProcessSet::of({3, 4})});
  cluster.settle();
  faults.clear();
  print_trace(cluster, mark);
  {
    const auto& c_state =
        dynamic_cast<const BasicDvProtocol&>(cluster.protocol(ProcessId(2)))
            .state();
    std::printf("\n  c's durable state now: %s\n", c_state.to_string().c_str());
    std::puts("  (the '-' marks c's own knowledge that *it* did not form the");
    std::puts("   session; whether a or b formed it is unknown — ambiguous)");
  }

  std::puts("\nstep 2: the network shifts to {a,b} | {c,d,e}");
  mark = cluster.sim().now();
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2, 3, 4})});
  cluster.settle();
  print_trace(cluster, mark);

  std::puts("\noutcome:");
  const auto primary = cluster.live_primary();
  std::printf("  live primary: %s\n",
              primary ? primary->to_string().c_str() : "(none)");
  std::puts("  {c,d,e} was rejected because it is not a Sub_Quorum of the");
  std::puts("  ambiguous {a,b,c} attempt c still holds — exactly the paper's");
  std::puts("  resolution of its 'typical problematic scenario'.");

  std::puts("\nstep 3: everything heals; c learns the session's fate through");
  std::puts("        Last_Formed gossip and the single primary resumes");
  mark = cluster.sim().now();
  cluster.merge();
  cluster.settle();
  print_trace(cluster, mark);

  const auto violations = cluster.checker().check_all();
  std::printf("\nconsistency check: %s\n",
              violations.empty() ? "clean" : to_string(violations).c_str());
  return violations.empty() ? 0 : 1;
}
