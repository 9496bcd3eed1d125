#include "membership/view.hpp"

namespace dynvote {

std::string to_string(const View& view) {
  return to_string(view.id) + view.members.to_string();
}

std::vector<View> ViewAnnouncer::announce(
    const std::vector<ProcessSet>& live_components) {
  std::vector<View> views;
  for (const ProcessSet& component : live_components) {
    // Components are disjoint, so recording one component's view cannot
    // change the verdict on a later one.
    bool changed = false;
    for (ProcessId p : component) {
      const View* view = latest(p);
      if (view == nullptr || view->members != component) {
        changed = true;
        break;
      }
    }
    if (changed) views.push_back(inject(component));
  }
  return views;
}

View ViewAnnouncer::inject(const ProcessSet& members) {
  View view{ViewId(next_view_id_++), members};
  for (ProcessId p : members) latest_[p] = view;
  return view;
}

const View* ViewAnnouncer::latest(ProcessId p) const {
  const auto it = latest_.find(p);
  return it == latest_.end() ? nullptr : &it->second;
}

}  // namespace dynvote
