// Time-series sampling of the metrics registry: snapshots selected
// counters / gauges / histogram quantiles at a configurable sim-time
// cadence into a bounded ring, so goodput, retransmissions, credit,
// governor charge, and pool occupancy become plottable curves instead
// of end-of-run aggregates.
//
// Handles resolve lazily: a tracked metric that does not exist yet
// (components create their instruments at construction) samples as 0
// until its first find_* hit, then sticks to the resolved handle.
// run_sampled() runs a Simulator in slices and samples between them,
// so sampling arms no events: it never keeps a drained event queue
// alive (which would trip quiescence watchdogs) or moves the time of
// the run's last event.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/runtime.hpp"
#include "src/obs/metrics.hpp"

namespace chunknet {

struct TimeSeriesConfig {
  SimTime interval{10 * kMillisecond};
  /// Retained rows; the oldest are overwritten once full, so a sampler
  /// can stay attached to a long run and always hold the most recent
  /// window.
  std::size_t capacity{4096};
};

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(const MetricsRegistry& reg,
                             TimeSeriesConfig cfg = {});

  /// Column registration; call before the first sample(). The label
  /// defaults to the metric name ("<name>.p<P>" for quantiles).
  void track_counter(std::string_view name);
  void track_gauge(std::string_view name);
  void track_quantile(std::string_view name, double percentile);

  /// Takes one row at simulated time `now`.
  void sample(SimTime now);

  SimTime interval() const noexcept { return cfg_.interval; }
  std::size_t columns() const noexcept { return cols_.size(); }
  const std::vector<std::string>& labels() const noexcept { return labels_; }
  std::size_t rows() const noexcept;
  std::uint64_t samples_taken() const noexcept { return taken_; }
  std::uint64_t rows_dropped() const noexcept;

  /// Row access, oldest first; `col` indexes labels().
  SimTime time_at(std::size_t row) const;
  double value_at(std::size_t row, std::size_t col) const;

  /// {"interval_ns": I, "samples": N, "dropped": D,
  ///  "series": [label ...], "rows": [[t_ns, v ...] ...]} — rows oldest
  /// first, integral values emitted exactly.
  std::string to_json() const;

 private:
  struct Column {
    enum class Kind : std::uint8_t { kCounter, kGauge, kQuantile };
    Kind kind;
    std::string name;
    double percentile{0.0};
    const void* handle{nullptr};  ///< resolved lazily
  };
  struct Row {
    SimTime t{0};
    std::vector<double> values;
  };

  double read(Column& c) const;

  const MetricsRegistry& reg_;
  TimeSeriesConfig cfg_;
  std::vector<Column> cols_;
  std::vector<std::string> labels_;
  std::vector<Row> ring_;
  std::uint64_t taken_{0};
};

/// Runs `sim` until nothing is pending or `deadline` passes, sampling
/// at each multiple of the sampler's interval that the run reaches.
template <typename Sim>
void run_sampled(Sim& sim, TimeSeriesSampler& sampler, SimTime deadline) {
  const SimTime dt = sampler.interval();
  for (SimTime t = dt; t < deadline && sim.pending(); t += dt) {
    sim.run(t);
    sampler.sample(t);
  }
  sim.run(deadline);
}

}  // namespace chunknet
