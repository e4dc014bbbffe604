// Tests for the time-series sampler: column registration, lazy handle
// resolution, ring bounding, quantile extraction, JSON round-trip, and
// run_sampled's sampling between run slices on a real Simulator.
#include "src/obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/netsim/simulator.hpp"
#include "src/obs/json.hpp"

namespace chunknet {
namespace {

TEST(TimeSeries, SamplesCountersGaugesAndQuantiles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("chunks");
  Gauge& g = reg.gauge("held");
  Histogram& h = reg.histogram("lat");

  TimeSeriesSampler ts(reg);
  ts.track_counter("chunks");
  ts.track_gauge("held");
  ts.track_quantile("lat", 50.0);
  ASSERT_EQ(ts.columns(), 3u);
  EXPECT_EQ(ts.labels()[0], "chunks");
  EXPECT_EQ(ts.labels()[2], "lat.p50");

  ts.sample(0);
  c.add(10);
  g.set(-3);
  for (int i = 1; i <= 100; ++i) h.observe(i * 1000.0);
  ts.sample(kMillisecond);

  ASSERT_EQ(ts.rows(), 2u);
  EXPECT_EQ(ts.time_at(0), 0u);
  EXPECT_EQ(ts.time_at(1), kMillisecond);
  EXPECT_DOUBLE_EQ(ts.value_at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ts.value_at(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(1, 1), -3.0);
  // Percentile interpolates, but p50 of 1k..100k must land mid-range.
  EXPECT_NEAR(ts.value_at(1, 2), h.percentile(50.0), 1e-9);
  EXPECT_GT(ts.value_at(1, 2), 1000.0);
  EXPECT_LT(ts.value_at(1, 2), 100000.0);
}

TEST(TimeSeries, LazyHandleResolution) {
  MetricsRegistry reg;
  TimeSeriesSampler ts(reg);
  ts.track_counter("late.bloomer");

  ts.sample(0);  // metric does not exist yet
  EXPECT_DOUBLE_EQ(ts.value_at(0, 0), 0.0);

  reg.counter("late.bloomer").add(7);
  ts.sample(1);
  EXPECT_DOUBLE_EQ(ts.value_at(1, 0), 7.0);
}

TEST(TimeSeries, RingKeepsMostRecentWindow) {
  MetricsRegistry reg;
  Counter& c = reg.counter("n");
  TimeSeriesConfig cfg;
  cfg.capacity = 4;
  TimeSeriesSampler ts(reg, cfg);
  ts.track_counter("n");

  for (std::uint64_t i = 0; i < 10; ++i) {
    c.add(1);
    ts.sample(i * 100);
  }
  EXPECT_EQ(ts.samples_taken(), 10u);
  EXPECT_EQ(ts.rows(), 4u);
  EXPECT_EQ(ts.rows_dropped(), 6u);
  // Oldest retained row is sample #6 (t=600, counter=7).
  EXPECT_EQ(ts.time_at(0), 600u);
  EXPECT_DOUBLE_EQ(ts.value_at(0, 0), 7.0);
  EXPECT_EQ(ts.time_at(3), 900u);
  EXPECT_DOUBLE_EQ(ts.value_at(3, 0), 10.0);
}

TEST(TimeSeries, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("a").add(3);
  reg.gauge("b\"quoted").set(5);
  TimeSeriesSampler ts(reg);
  ts.track_counter("a");
  ts.track_gauge("b\"quoted");
  ts.sample(0);
  ts.sample(2 * kMillisecond);

  const auto doc = parse_json(ts.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->u64_or("interval_ns"), 10 * kMillisecond);
  EXPECT_EQ(doc->u64_or("samples"), 2u);
  EXPECT_EQ(doc->u64_or("dropped"), 0u);
  const JsonValue* series = doc->find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->arr.size(), 2u);
  EXPECT_EQ(series->arr[1].str, "b\"quoted");
  const JsonValue* rows = doc->find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->arr.size(), 2u);
  // Row layout is [t_ns, v0, v1].
  ASSERT_EQ(rows->arr[1].arr.size(), 3u);
  EXPECT_DOUBLE_EQ(rows->arr[1].arr[0].number,
                   static_cast<double>(2 * kMillisecond));
  EXPECT_DOUBLE_EQ(rows->arr[1].arr[1].number, 3.0);
  EXPECT_DOUBLE_EQ(rows->arr[1].arr[2].number, 5.0);
}

TEST(TimeSeries, AttachedSamplerTerminatesWithWorkload) {
  MetricsRegistry reg;
  Counter& c = reg.counter("work");
  Simulator sim;
  TimeSeriesConfig cfg;
  cfg.interval = kMillisecond;
  TimeSeriesSampler ts(reg, cfg);
  ts.track_counter("work");

  // Workload: one event per ms for 5 ms.
  for (int i = 1; i <= 5; ++i) {
    sim.arm_in(i * kMillisecond, [&c] { c.add(1); });
  }
  run_sampled(sim, ts, ~SimTime{0});

  // The sampler must not keep the queue alive past the workload.
  EXPECT_FALSE(sim.pending());
  EXPECT_LE(sim.now(), 7 * kMillisecond);
  EXPECT_GE(ts.rows(), 4u);
  // Last sample saw all the work that ran at or before its tick.
  EXPECT_DOUBLE_EQ(ts.value_at(ts.rows() - 1, 0),
                   static_cast<double>(c.value()));
}

}  // namespace
}  // namespace chunknet
