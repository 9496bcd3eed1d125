#include "harness/schedule.hpp"

#include <algorithm>
#include <iterator>

#include "util/ensure.hpp"

namespace dynvote {

std::string ScheduleEvent::to_string() const {
  switch (kind) {
    case Kind::kPartition: {
      std::string out = "t=" + std::to_string(time) + " partition";
      for (const auto& g : groups) out += " " + g.to_string();
      return out;
    }
    case Kind::kMerge: {
      std::string out = "t=" + std::to_string(time) + " merge";
      for (const auto& g : groups) out += " " + g.to_string();
      return out;
    }
    case Kind::kCrash:
      return "t=" + std::to_string(time) + " crash " + dynvote::to_string(process);
    case Kind::kRecover:
      return "t=" + std::to_string(time) + " recover " +
             dynvote::to_string(process);
  }
  return "?";
}

namespace {

/// The generator's model of the network it is scripting.
struct TopologyModel {
  std::vector<ProcessSet> components;  // live processes only
  ProcessSet crashed;

  [[nodiscard]] bool can_partition() const {
    return std::any_of(components.begin(), components.end(),
                       [](const ProcessSet& c) { return c.size() >= 2; });
  }
  [[nodiscard]] bool can_merge() const { return components.size() >= 2; }
  [[nodiscard]] bool can_crash() const {
    return std::any_of(components.begin(), components.end(),
                       [](const ProcessSet& c) { return !c.empty(); });
  }
  [[nodiscard]] bool can_recover() const { return !crashed.empty(); }
};

ProcessSet random_split(const ProcessSet& component, Rng& rng) {
  // A uniformly random non-empty strict subset to break off.
  std::vector<ProcessId> members(component.begin(), component.end());
  rng.shuffle(members);
  const std::size_t cut =
      1 + static_cast<std::size_t>(rng.next_below(members.size() - 1));
  return ProcessSet(
      std::vector<ProcessId>(members.begin(), members.begin() + cut));
}

}  // namespace

std::vector<ScheduleEvent> generate_schedule(const ProcessSet& processes,
                                             const ScheduleOptions& options) {
  ensure(processes.size() >= 2, "schedules need at least two processes");
  Rng rng(options.seed);
  TopologyModel model;
  model.components.push_back(processes);

  std::vector<ScheduleEvent> schedule;
  SimTime t = 0;
  for (;;) {
    t += std::max<SimTime>(
        1, static_cast<SimTime>(
               rng.next_exponential(static_cast<double>(options.mean_event_gap))));
    if (t >= options.duration) break;

    // Draw an applicable event kind by weight: partitions and merges 4,
    // recoveries 2, crashes 1 (normalized over the kinds possible in the
    // current topology).
    struct Choice {
      ScheduleEvent::Kind kind;
      double weight;
      bool possible;
    };
    const Choice choices[] = {
        {ScheduleEvent::Kind::kPartition, 4, model.can_partition()},
        {ScheduleEvent::Kind::kMerge, 4, model.can_merge()},
        {ScheduleEvent::Kind::kCrash, 1, model.can_crash()},
        {ScheduleEvent::Kind::kRecover, 2, model.can_recover()},
    };
    double total = 0;
    for (const Choice& c : choices) {
      if (c.possible) total += c.weight;
    }
    if (total <= 0) continue;  // fully crashed or single component of one
    double pick = rng.next_double() * total;
    ScheduleEvent::Kind kind = ScheduleEvent::Kind::kPartition;
    for (const Choice& c : choices) {
      if (!c.possible) continue;
      if (pick < c.weight) {
        kind = c.kind;
        break;
      }
      pick -= c.weight;
    }

    ScheduleEvent event;
    event.time = t;
    event.kind = kind;
    switch (kind) {
      case ScheduleEvent::Kind::kPartition: {
        std::vector<std::size_t> splittable;
        for (std::size_t i = 0; i < model.components.size(); ++i) {
          if (model.components[i].size() >= 2) splittable.push_back(i);
        }
        const std::size_t target = splittable[static_cast<std::size_t>(
            rng.next_below(splittable.size()))];
        const ProcessSet half = random_split(model.components[target], rng);
        const ProcessSet rest = model.components[target].set_difference(half);
        model.components[target] = half;
        model.components.push_back(rest);
        event.groups = {half, rest};
        break;
      }
      case ScheduleEvent::Kind::kMerge: {
        const std::size_t a =
            static_cast<std::size_t>(rng.next_below(model.components.size()));
        std::size_t b = a;
        while (b == a) {
          b = static_cast<std::size_t>(rng.next_below(model.components.size()));
        }
        event.groups = {model.components[a], model.components[b]};
        const ProcessSet merged =
            model.components[a].set_union(model.components[b]);
        model.components.erase(model.components.begin() +
                               static_cast<std::ptrdiff_t>(std::max(a, b)));
        model.components.erase(model.components.begin() +
                               static_cast<std::ptrdiff_t>(std::min(a, b)));
        model.components.push_back(merged);
        break;
      }
      case ScheduleEvent::Kind::kCrash: {
        // Pick a uniformly random live process.
        std::vector<ProcessId> live;
        for (const ProcessSet& c : model.components) {
          live.insert(live.end(), c.begin(), c.end());
        }
        event.process = live[static_cast<std::size_t>(rng.next_below(live.size()))];
        model.crashed.insert(event.process);
        for (ProcessSet& c : model.components) c.erase(event.process);
        std::erase_if(model.components,
                      [](const ProcessSet& c) { return c.empty(); });
        break;
      }
      case ScheduleEvent::Kind::kRecover: {
        event.process = *std::next(
            model.crashed.begin(),
            static_cast<std::ptrdiff_t>(rng.next_below(model.crashed.size())));
        model.crashed.erase(event.process);
        // Recovers into its own singleton component (matching Simulator
        // semantics); a later merge may reconnect it.
        model.components.push_back(ProcessSet{event.process});
        break;
      }
    }
    schedule.push_back(std::move(event));
  }
  return schedule;
}

}  // namespace dynvote
