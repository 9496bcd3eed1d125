#include "membership/membership_oracle.hpp"

namespace dynvote {

MembershipOracle::MembershipOracle(sim::Simulator& sim)
    : sim_(sim), rng_(sim.rng().split()) {
  sim_.network().add_topology_observer([this] { on_topology_changed(); });
}

void MembershipOracle::on_topology_changed() {
  for (const View& view :
       announcer_.announce(sim_.network().live_components())) {
    schedule_view(view);
  }
}

ViewId MembershipOracle::inject_view(const ProcessSet& members) {
  const View view = announcer_.inject(members);
  schedule_view(view);
  return view.id;
}

void MembershipOracle::schedule_view(const View& view) {
  for (ProcessId p : view.members) {
    const SimTime delay =
        kDetectionDelayMin +
        rng_.next_below(kDetectionDelayMax - kDetectionDelayMin + 1);
    sim_.queue().schedule_after(delay, [this, p, view] {
      // Suppress if a newer view superseded this one for p, or if p is
      // down. (A crashed-and-recovered p gets fresh views from the
      // recovery's own topology change.)
      const View* latest = announcer_.latest(p);
      if (latest == nullptr || latest->id != view.id) return;
      if (!sim_.network().alive(p)) return;
      sim_.node(p).deliver_view(view);
    });
  }
}

}  // namespace dynvote
