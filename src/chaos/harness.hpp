// The chaos harness: runs one ChaosScenario end-to-end and checks the
// seven robustness oracles. Every scenario runs through one pipeline:
// its senders share a forward path into one ChunkDemultiplexer, which
// routes each chunk to its connection's receiver by C.ID; a single
// connection is the simplest case of it (the paper's Appendix A).
//
//   1. Truthful delivery — every TPDU the receiver reported accepted
//      has exactly the sender's bytes in application memory, and every
//      TPDU is accounted for as accepted or given-up at quiescence.
//   2. Conservation — chunk dispositions balance exactly: every data
//      chunk the receiver triaged is placed, rejected by triage,
//      out-of-buffer, dropped-unplaced, or still held — and the same
//      numbers come back from the metrics registry.
//   3. No held-state leak — after quiescence (and after aborting the
//      TPDUs the sender gave up on) each receiver holds zero bytes, an
//      empty reorder queue, and no unfinished TPDU state. In clean
//      scenarios that are not overloaded, no unfinished TPDU may even
//      be left to abort; churn runs also leave no stale flow or
//      refusal in the connection table.
//   4. No livelock — the event queue drains before the watchdog
//      deadline and retransmission work is bounded by the configured
//      retry budget.
//   5. Invariant soundness — a corruption-free scenario must never
//      reject a TPDU (WSC-2 over the fragmentation-invariant layout is
//      exact across arbitrary re-enveloping chains); corrupting
//      scenarios fall back to oracle 1 for no-false-accept.
//   6. Overload fairness — overloaded scenarios only: governed
//      memory (receiver held-state charged to the ResourceGovernor)
//      never exceeds the hard watermark (checked via charged_peak),
//      drains to zero at quiescence, admission accounting closes
//      (admitted + refused = offered), and no admitted connection
//      starves — each one either accepts at least one TPDU or has its
//      whole stream truthfully reported given-up by its sender.
//   7. No stranded packets on a dead path — multipath scenarios only:
//      the spray plane's per-path conservation closes exactly
//      (tx == delivered + loss evidence once nothing is in flight),
//      a killed path never receives traffic while a live path exists,
//      an administrative kill always surfaces as a failover, and the
//      registry's per-path counters agree with the scheduler's stats.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/scenario.hpp"

namespace chunknet {

struct ChaosResult {
  bool ok{true};
  /// One line per violated oracle, prefixed "oracle-N:".
  std::vector<std::string> failures;

  // Run summary (for logs and tests).
  std::uint64_t tpdus_accepted{0};
  std::uint64_t tpdus_rejected{0};
  std::uint64_t tpdus_gave_up{0};
  std::uint64_t retransmissions{0};
  std::uint64_t data_chunks{0};
  std::uint64_t acks_resent{0};
  SimTime sim_end{0};

  // Admission and governor summary. connections_admitted is the
  // demultiplexer's admission count when a governor runs (churn
  // included), else the number of connections attached: 1 for a
  // one-connection scenario. The governor_* fields stay zero without
  // a governor.
  std::uint64_t connections_admitted{0};
  std::uint64_t connections_refused{0};
  std::uint64_t governor_charged_peak{0};
  std::uint64_t governor_sheds{0};

  // Multipath summary (zero when the scenario sprays no paths).
  std::uint64_t mp_failovers{0};
  std::uint64_t mp_failbacks{0};
  std::uint64_t mp_lost{0};

  void fail(std::string msg) {
    ok = false;
    failures.push_back(std::move(msg));
  }
};

/// Flight-recorder capture: pass to run_chaos to instrument the run
/// with a bounded trace ring, a causal span recorder, and a time-series
/// sampler over the run's registry, and get the serialized artefacts
/// back. Normal (uninstrumented) runs pay nothing; a failed soak run is
/// re-run deterministically with a capture to produce the bundle
/// (docs/OBSERVABILITY.md, "Flight recorder").
struct ChaosCapture {
  // Knobs.
  SimTime sample_interval{5 * kMillisecond};
  std::size_t trace_capacity{1 << 15};
  std::size_t span_capacity{1 << 14};

  // Outputs, filled in when run_chaos returns. The last time-series row
  // is sampled after quiescence cleanup, so it matches the final
  // registry snapshot in metrics_json exactly.
  std::string trace_json;       ///< ChunkTracer ring (trace_to_json)
  std::string timeseries_json;  ///< sampled curves (TimeSeriesSampler)
  std::string chrome_json;      ///< Chrome trace-event JSON (Perfetto)
  std::string metrics_json;     ///< full registry snapshot
};

/// Runs the scenario to quiescence (or the watchdog) and evaluates the
/// oracles, per connection and in aggregate: 1–5 always, 6 when the
/// scenario is overloaded(), 7 when it is multipath().
/// Deterministic: the same scenario always returns the same result.
ChaosResult run_chaos(const ChaosScenario& sc);

/// As above, with flight-recorder instrumentation; `capture` may be
/// null (then identical to the plain overload). Instrumentation never
/// changes the verdict — only the event ring/sampler observe the run.
ChaosResult run_chaos(const ChaosScenario& sc, ChaosCapture* capture);

/// Greedy scenario minimizer: repeatedly tries to disable features /
/// shrink the workload while `run_chaos` still fails, and returns the
/// smallest still-failing scenario. `steps` bounds the total number of
/// candidate runs.
ChaosScenario minimize_scenario(const ChaosScenario& sc, int steps = 64);

}  // namespace chunknet
