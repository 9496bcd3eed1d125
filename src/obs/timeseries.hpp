// Sim-time time series: periodic snapshots of selected hub instruments.
//
// A fleet run is a single virtual timeline; knowing only the end-of-run
// totals hides *when* a shard stalled. The sampler snapshots selected
// instruments from a MetricsHub on a fixed sim-time tick:
// tracked counters are summed across groups and carry a windowed rate
// (delta per virtual second since the previous sample — ticks are
// microseconds), tracked gauges report the max across groups. Samples
// land in a ring buffer so long runs stay bounded; evictions are
// counted, never silent.
//
// Determinism: sampling is driven by the simulation (ShardedFleet calls
// sample() at the end of every settle()), values come from the hub's
// deterministic registries, and the JSON export is schema-versioned and
// byte-identical for identical runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "obs/ring.hpp"
#include "util/ids.hpp"
#include "util/json.hpp"

namespace dynvote::obs {

/// Version stamped into every time-series JSON export; bump on any
/// incompatible change to the payload shape.
inline constexpr int kTimeSeriesSchemaVersion = 1;

/// Minimum sim-time spacing between retained samples (virtual ticks =
/// microseconds). Calls inside the window are dropped, so callers may
/// sample opportunistically (e.g. after every settle).
inline constexpr SimTime kTimeSeriesTick = 2'000;
/// Ring bound on retained samples.
inline constexpr std::size_t kTimeSeriesCapacity = 512;

class TimeSeriesSampler {
 public:
  /// The hub must outlive the sampler.
  explicit TimeSeriesSampler(const MetricsHub& hub);

  /// Tracks a counter by name: each sample records the cross-group sum
  /// and the windowed rate (delta / elapsed virtual seconds). Call at
  /// wiring time, before the first sample.
  void track_counter(std::string name);
  /// Tracks a gauge by name: each sample records the cross-group max of
  /// the current level.
  void track_gauge(std::string name);

  /// Takes a sample at sim-time `now` unless the previous retained
  /// sample is closer than the tick spacing (the first sample is always
  /// retained). Out-of-order calls (now below the last sample) are
  /// dropped.
  void sample(SimTime now);

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  /// Samples evicted by the ring bound.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return rows_.overwritten();
  }

  /// {"schema_version", "tick", "dropped", "times": [...],
  ///  "counters": {name: {"values": [...], "rates": [...]}},
  ///  "gauges": {name: {"values": [...]}}}. Column order follows
  /// track_* registration order; rows are sample order.
  [[nodiscard]] JsonValue to_json() const;

 private:
  struct Row {
    SimTime time = 0;
    std::vector<std::uint64_t> counter_values;
    std::vector<double> counter_rates;  // per virtual second
    std::vector<std::int64_t> gauge_values;
  };

  const MetricsHub& hub_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  Ring<Row> rows_;
  bool have_sample_ = false;
  SimTime last_time_ = 0;
  std::vector<std::uint64_t> last_counters_;
};

}  // namespace dynvote::obs
