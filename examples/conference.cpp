// Conference: the paper's motivating dynamic-membership application
// ("conferencing applications and interactive games wish to allow users
// to freely join and leave, without restarting the entire system" —
// paper section 1, realized by the section-6 protocol).
//
// A conference is founded by three core processes. Participants join on
// the fly, are admitted into the participant set W through formed
// sessions, and eventually the founders all leave — the conference keeps
// going, carried entirely by people who weren't there at the start.
#include <cstdio>

#include "dv/basic_protocol.hpp"
#include "harness/cluster.hpp"

using namespace dynvote;

namespace {

void show(Cluster& cluster, const char* moment) {
  std::printf("--- %s\n", moment);
  const auto primary = cluster.live_primary();
  std::printf("  conference floor: %s\n",
              primary ? primary->members.to_string().c_str() : "(none)");
  const auto& state =
      dynamic_cast<const BasicDvProtocol&>(
          cluster.protocol(primary && !primary->members.empty()
                               ? *primary->members.begin()
                               : ProcessId(0)))
          .state();
  std::printf("  participants W = %s, pending A = %s\n",
              state.participants.admitted().to_string().c_str(),
              state.participants.pending().to_string().c_str());
}

}  // namespace

int main() {
  ClusterOptions options;
  options.kind = ProtocolKind::kOptimized;
  options.n = 3;  // founders p0, p1, p2
  options.config.min_quorum = 2;
  options.config.dynamic_participants = true;  // the section-6 protocol
  options.sim.seed = 21;
  Cluster cluster(options);
  cluster.start();
  show(cluster, "conference founded by p0, p1, p2");

  // Guests join one at a time. Each join is just a membership change;
  // the join is complete when a session forms that includes the guest
  // (which also admits it into W).
  for (std::uint32_t guest : {3u, 4u, 5u, 6u}) {
    cluster.add_process(ProcessId(guest));
    cluster.merge();
    cluster.settle();
  }
  show(cluster, "guests p3..p6 joined and were admitted");

  // A network hiccup cuts off two guests; the conference continues with
  // the majority and takes them back when the network heals.
  cluster.partition({ProcessSet::of({0, 1, 2, 3, 4}), ProcessSet::of({5, 6})});
  cluster.settle();
  show(cluster, "p5, p6 dropped by the network");
  cluster.merge();
  cluster.settle();
  show(cluster, "p5, p6 reconnected");

  // The founders leave (voluntarily: they simply disconnect). Because
  // the guests are admitted participants, |quorum ∩ W| >= Min_Quorum is
  // satisfiable without any founder — the conference outlives them.
  // Under the fixed-core rule of paper section 4.1 this would be the end
  // of the system.
  cluster.partition({ProcessSet::of({3, 4, 5, 6}), ProcessSet::of({0, 1, 2})});
  cluster.settle();
  show(cluster, "all three founders left");

  // And it keeps adapting: another guest arrives afterwards.
  cluster.add_process(ProcessId(7));
  cluster.partition({ProcessSet::of({3, 4, 5, 6, 7}), ProcessSet::of({0, 1, 2})});
  cluster.settle();
  show(cluster, "p7 joined the founder-less conference");

  const auto violations = cluster.checker().check_all();
  std::printf("\nconsistency check: %s\n",
              violations.empty() ? "every floor handover totally ordered"
                                 : to_string(violations).c_str());
  return violations.empty() ? 0 : 1;
}
