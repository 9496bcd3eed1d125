// Unit tests: the metrics bridge (harness/events.hpp), driven with
// synthetic event streams — every count, gauge and episode the registry
// exports is derived here, so the derivation is tested on its own.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "harness/events.hpp"

namespace dynvote {
namespace {

obs::TraceEvent event_of(obs::TraceEventKind kind, SimTime time,
                         std::uint32_t p) {
  obs::TraceEvent event;
  event.time = time;
  event.kind = kind;
  event.a = ProcessId(p);
  return event;
}

obs::TraceEvent level(SimTime time, std::uint32_t p, std::uint64_t value) {
  obs::TraceEvent event =
      event_of(obs::TraceEventKind::kAmbiguityRecord, time, p);
  event.value = value;
  return event;
}

obs::TraceEvent abort_because(std::string reason) {
  obs::TraceEvent event = event_of(obs::TraceEventKind::kSessionAbort, 1, 0);
  event.detail = std::move(reason);
  return event;
}

obs::TraceEvent formed(SimTime time, std::uint32_t p, std::uint64_t rounds) {
  obs::TraceEvent event =
      event_of(obs::TraceEventKind::kSessionFormed, time, p);
  event.value = rounds;
  return event;
}

TEST(MetricsObserver, AmbiguityTicksSumEachProcessClosedEpisodes) {
  obs::MetricsRegistry registry;
  MetricsObserver observer(registry);
  observer.note(event_of(obs::TraceEventKind::kViewInstalled, 50, 0));
  observer.note(event_of(obs::TraceEventKind::kSessionAttempt, 60, 0));
  // Neither instrument exists before the first recorded level.
  EXPECT_FALSE(registry.gauges().contains("dv.ambiguous_recorded"));
  EXPECT_FALSE(registry.counters().contains("dv.ambiguity_ticks"));

  observer.note(level(100, 0, 1));  // p0 opens
  observer.note(level(150, 1, 2));  // p1 opens while p0 is open
  observer.note(level(200, 0, 2));  // p0 still open
  observer.note(level(300, 0, 0));  // p0 closes: 200
  // p1's disk is destroyed: its records die and it comes back at level
  // 0, which closes its episode like any other drop: 250.
  obs::TraceEvent lost =
      event_of(obs::TraceEventKind::kAmbiguityResolved, 400, 1);
  lost.detail = "disk-loss";
  observer.note(lost);
  observer.note(level(400, 1, 0));
  observer.note(level(500, 2, 1));  // p2 opens and never closes
  observer.note(level(600, 0, 1));  // p0 opens again
  observer.note(level(650, 0, 0));  // and closes: 50
  observer.note(level(700, 1, 1));  // p1 opens again, still open at the end

  // 200 + 250 + 50 replica ticks. The union of the closed episodes
  // ([100, 400) and [600, 650)) would be 350; the open tails of p1 and
  // p2 are not counted.
  EXPECT_EQ(registry.counter_value("dv.ambiguity_ticks"), 500u);
  const obs::Gauge& gauge = registry.gauge("dv.ambiguous_recorded");
  EXPECT_EQ(gauge.value(), 1);  // the latest level any process recorded
  EXPECT_EQ(gauge.max(), 2);
}

TEST(MetricsObserver, CountsRejectionsBlockedAndRounds) {
  obs::MetricsRegistry registry;
  MetricsObserver observer(registry);
  observer.note(abort_because("no majority"));
  observer.note(abort_because("blocked: waiting for p3"));
  observer.note(abort_because("not blocked: Min_Quorum"));
  observer.note(abort_because("blocked"));
  EXPECT_EQ(observer.rejected(), 4u);
  EXPECT_EQ(registry.counter_value("dv.rejected"), 4u);
  EXPECT_EQ(observer.blocked(), 2u);  // only a reason that starts "blocked"
  for (const auto& [name, counter] : registry.counters()) {
    EXPECT_EQ(name.find("blocked"), std::string::npos) << name;
  }

  observer.note(formed(1, 0, 2));
  observer.note(formed(2, 1, 4));
  EXPECT_EQ(observer.rounds().count(), 2u);
  EXPECT_DOUBLE_EQ(observer.rounds().mean(), 3.0);
  EXPECT_EQ(observer.rounds().max(), 4u);
  EXPECT_EQ(registry.counter_value("dv.formed"), 2u);
}

}  // namespace
}  // namespace dynvote
