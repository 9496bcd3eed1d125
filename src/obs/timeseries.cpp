#include "obs/timeseries.hpp"

#include <utility>

namespace dynvote::obs {

TimeSeriesSampler::TimeSeriesSampler(const MetricsHub& hub)
    : hub_(hub), rows_(kTimeSeriesCapacity) {}

void TimeSeriesSampler::track_counter(std::string name) {
  counter_names_.push_back(std::move(name));
  last_counters_.push_back(0);
}

void TimeSeriesSampler::track_gauge(std::string name) {
  gauge_names_.push_back(std::move(name));
}

void TimeSeriesSampler::sample(SimTime now) {
  if (have_sample_ &&
      (now < last_time_ || now - last_time_ < kTimeSeriesTick)) {
    return;
  }

  Row row;
  row.time = now;
  row.counter_values.reserve(counter_names_.size());
  row.counter_rates.reserve(counter_names_.size());
  const double elapsed_seconds =
      have_sample_ ? static_cast<double>(now - last_time_) / 1e6 : 0.0;
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    const std::uint64_t value = hub_.group_counter_sum(counter_names_[i]);
    const std::uint64_t delta =
        value >= last_counters_[i] ? value - last_counters_[i] : 0;
    row.counter_values.push_back(value);
    row.counter_rates.push_back(
        elapsed_seconds > 0.0 ? static_cast<double>(delta) / elapsed_seconds
                              : 0.0);
    last_counters_[i] = value;
  }
  row.gauge_values.reserve(gauge_names_.size());
  for (const std::string& name : gauge_names_) {
    std::int64_t level = 0;
    for (std::size_t g = 0; g < hub_.num_groups(); ++g) {
      const auto& gauges = hub_.group(g).gauges();
      const auto it = gauges.find(name);
      if (it != gauges.end() && it->second.value() > level) {
        level = it->second.value();
      }
    }
    row.gauge_values.push_back(level);
  }

  rows_.push(std::move(row));
  have_sample_ = true;
  last_time_ = now;
}

JsonValue TimeSeriesSampler::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("schema_version", JsonValue(kTimeSeriesSchemaVersion));
  out.set("tick", JsonValue(std::uint64_t{kTimeSeriesTick}));
  out.set("dropped", JsonValue(dropped()));

  JsonValue times = JsonValue::array();
  times.reserve(rows_.size());
  for (const Row& row : rows_) times.push_back(JsonValue(row.time));
  out.set("times", std::move(times));

  JsonValue counters = JsonValue::object();
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    JsonValue values = JsonValue::array();
    JsonValue rates = JsonValue::array();
    values.reserve(rows_.size());
    rates.reserve(rows_.size());
    for (const Row& row : rows_) {
      values.push_back(JsonValue(row.counter_values[i]));
      rates.push_back(JsonValue(row.counter_rates[i]));
    }
    JsonValue series = JsonValue::object();
    series.set("values", std::move(values));
    series.set("rates", std::move(rates));
    counters.set(counter_names_[i], std::move(series));
  }
  out.set("counters", std::move(counters));

  JsonValue gauges = JsonValue::object();
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    JsonValue values = JsonValue::array();
    values.reserve(rows_.size());
    for (const Row& row : rows_) {
      values.push_back(JsonValue(row.gauge_values[i]));
    }
    JsonValue series = JsonValue::object();
    series.set("values", std::move(values));
    gauges.set(gauge_names_[i], std::move(series));
  }
  out.set("gauges", std::move(gauges));
  return out;
}

}  // namespace dynvote::obs
