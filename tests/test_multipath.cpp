// Tests for the multipath resilience plane: spray-mode scheduling
// (per-packet, smooth weighted round-robin, flowlet), loss-evidence
// failover, administrative path kill/revive with hysteresis failback,
// graceful degradation when nothing is healthy, and the conservation
// contract (tx == delivered + lost once nothing is in flight) that
// chaos oracle 7 asserts at scale.
#include <gtest/gtest.h>

#include <vector>

#include "src/netsim/multipath.hpp"
#include "src/netsim/simulator.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace chunknet {
namespace {

class CountingSink final : public PacketSink {
 public:
  void on_packet(SimPacket pkt) override {
    ++count;
    bytes += pkt.bytes.size();
  }
  std::uint64_t count{0};
  std::uint64_t bytes{0};
};

SimPacket packet_of(Simulator& sim, std::size_t bytes) {
  SimPacket p;
  p.bytes.assign(bytes, 0x5A);
  p.id = sim.next_packet_id();
  p.created_at = sim.now();
  return p;
}

std::vector<MultipathPathConfig> clean_paths(std::size_t n) {
  std::vector<MultipathPathConfig> paths(n);
  for (auto& p : paths) {
    p.link.rate_bps = 622e6;
    p.link.prop_delay = 1 * kMillisecond;
    p.link.mtu = 9000;
  }
  return paths;
}

/// Every path must close conservation once the run quiesced.
void expect_conservation(const MultipathScheduler& mp) {
  EXPECT_EQ(mp.inflight(), 0u);
  std::uint64_t tx = 0;
  for (std::size_t i = 0; i < mp.path_count(); ++i) {
    const auto& ps = mp.path_stats(i);
    EXPECT_EQ(ps.tx_packets, ps.delivered + ps.lost) << "path " << i;
    tx += ps.tx_packets;
  }
  EXPECT_EQ(tx, mp.stats().sprayed);
}

// ------------------------------------------------------ spray modes

TEST(Multipath, PerPacketRoundRobinSplitsEvenly) {
  Simulator sim;
  Rng rng(1);
  CountingSink sink;
  MultipathConfig cfg;
  cfg.mode = SprayMode::kPerPacket;
  MultipathScheduler mp(sim, cfg, clean_paths(4), sink, rng);
  for (int i = 0; i < 100; ++i) mp.send(packet_of(sim, 1000));
  sim.run();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(mp.path_stats(i).tx_packets, 25u) << "path " << i;
    EXPECT_EQ(mp.path_stats(i).delivered, 25u) << "path " << i;
  }
  EXPECT_EQ(sink.count, 100u);
  EXPECT_EQ(mp.stats().forwarded, 100u);
  EXPECT_EQ(mp.stats().failovers, 0u);
  expect_conservation(mp);
}

TEST(Multipath, SmoothWeightedRoundRobinHonoursWeights) {
  Simulator sim;
  Rng rng(2);
  CountingSink sink;
  MultipathConfig cfg;
  cfg.mode = SprayMode::kWeightedRoundRobin;
  auto paths = clean_paths(2);
  paths[0].weight = 3.0;
  paths[1].weight = 1.0;
  MultipathScheduler mp(sim, cfg, std::move(paths), sink, rng);
  for (int i = 0; i < 400; ++i) mp.send(packet_of(sim, 500));
  sim.run();
  // Smooth WRR is exact over whole cycles: 3:1 over 400 packets.
  EXPECT_EQ(mp.path_stats(0).tx_packets, 300u);
  EXPECT_EQ(mp.path_stats(1).tx_packets, 100u);
  EXPECT_EQ(sink.count, 400u);
  expect_conservation(mp);
}

TEST(Multipath, FlowletSticksWithinBurstAndRepicksAfterGap) {
  Simulator sim;
  Rng rng(3);
  CountingSink sink;
  MultipathConfig cfg;
  cfg.mode = SprayMode::kFlowlet;
  cfg.flowlet_gap = 1 * kMillisecond;
  auto paths = clean_paths(2);
  paths[0].link.prop_delay = 5 * kMillisecond;  // slow path
  paths[1].link.prop_delay = 1 * kMillisecond;  // fast path
  MultipathScheduler mp(sim, cfg, std::move(paths), sink, rng);
  // Burst 1 at t=0: no delay estimates yet, the scheduler picks path 0
  // and sticks with it for the whole back-to-back burst.
  for (int i = 0; i < 10; ++i) mp.send(packet_of(sim, 500));
  // Burst 2 long after the flowlet gap: path 0 now has a ~5 ms delay
  // EWMA while path 1 is unprobed (reads as "try me"), so the new
  // flowlet lands on path 1 — one switch, not ten.
  sim.arm_at(100 * kMillisecond, [&] {
    for (int i = 0; i < 10; ++i) mp.send(packet_of(sim, 500));
  });
  sim.run();
  EXPECT_EQ(mp.path_stats(0).tx_packets, 10u);
  EXPECT_EQ(mp.path_stats(1).tx_packets, 10u);
  EXPECT_EQ(mp.stats().flowlet_switches, 1u);
  expect_conservation(mp);
}

TEST(Multipath, SinglePathDegenerateDeliversEverything) {
  Simulator sim;
  Rng rng(4);
  CountingSink sink;
  MultipathConfig cfg;
  MultipathScheduler mp(sim, cfg, clean_paths(1), sink, rng);
  for (int i = 0; i < 50; ++i) mp.send(packet_of(sim, 1000));
  sim.run();
  EXPECT_EQ(sink.count, 50u);
  EXPECT_EQ(mp.path_stats(0).tx_packets, 50u);
  EXPECT_EQ(mp.stats().failovers, 0u);
  expect_conservation(mp);
}

// ------------------------------------------------ failover/failback

TEST(Multipath, ConsecutiveLossEvidenceFailsOverToCleanPath) {
  Simulator sim;
  Rng rng(5);
  CountingSink sink;
  MultipathConfig cfg;
  cfg.mode = SprayMode::kPerPacket;
  auto paths = clean_paths(2);
  paths[1].link.loss_rate = 1.0;  // path 1 silently eats everything
  MultipathScheduler mp(sim, cfg, std::move(paths), sink, rng);
  for (int i = 0; i < 100; ++i) {
    sim.arm_at(static_cast<SimTime>(i) * 2 * kMillisecond,
               [&] { mp.send(packet_of(sim, 1000)); });
  }
  sim.run();
  EXPECT_TRUE(mp.path_stats(1).down);
  EXPECT_EQ(mp.path_stats(1).failovers, 1u);
  EXPECT_EQ(mp.stats().failovers, 1u);
  EXPECT_EQ(mp.path_stats(1).delivered, 0u);
  // After the failover, probes (and only probes) still land on path 1.
  EXPECT_GT(mp.path_stats(1).probes, 0u);
  // The clean path carried the bulk of the run (path 1 still takes a
  // probe every interval, so not all 100 packets).
  EXPECT_GT(mp.path_stats(0).delivered, 70u);
  EXPECT_EQ(mp.stats().killed_path_sends, 0u);
  expect_conservation(mp);
}

TEST(Multipath, KilledPathDeadDropsInFlightAndTakesNoTraffic) {
  Simulator sim;
  Rng rng(6);
  CountingSink sink;
  MultipathConfig cfg;
  cfg.mode = SprayMode::kPerPacket;
  auto paths = clean_paths(2);
  paths[0].link.prop_delay = 10 * kMillisecond;
  paths[1].link.prop_delay = 10 * kMillisecond;
  MultipathScheduler mp(sim, cfg, std::move(paths), sink, rng);
  for (int i = 0; i < 20; ++i) mp.send(packet_of(sim, 500));
  // Kill path 1 while its 10 packets are still in flight: they must be
  // discarded at the dead egress and accounted as loss evidence.
  sim.arm_at(1 * kMillisecond, [&] { mp.kill_path(1); });
  sim.arm_at(50 * kMillisecond, [&] {
    for (int i = 0; i < 20; ++i) mp.send(packet_of(sim, 500));
  });
  sim.run();
  const auto& dead = mp.path_stats(1);
  EXPECT_TRUE(dead.killed);
  EXPECT_EQ(dead.tx_packets, 10u);
  EXPECT_EQ(dead.dead_drops, 10u);
  EXPECT_EQ(dead.lost, 10u);
  EXPECT_EQ(dead.delivered, 0u);
  // Everything after the kill rode the surviving path — killed paths
  // get no traffic, not even probes.
  EXPECT_EQ(mp.path_stats(0).tx_packets, 30u);
  EXPECT_EQ(dead.probes, 0u);
  EXPECT_EQ(mp.stats().killed_path_sends, 0u);
  EXPECT_EQ(mp.stats().failovers, 1u);
  EXPECT_EQ(sink.count, 30u);
  expect_conservation(mp);
}

TEST(Multipath, RevivedPathFailsBackOnlyAfterProbeHysteresis) {
  Simulator sim;
  Rng rng(7);
  CountingSink sink;
  MultipathConfig cfg;
  cfg.mode = SprayMode::kPerPacket;
  cfg.probe_interval = 20 * kMillisecond;
  cfg.failback_consecutive_successes = 4;
  MultipathScheduler mp(sim, cfg, clean_paths(2), sink, rng);
  mp.kill_path(1);
  for (int i = 0; i < 100; ++i) {
    sim.arm_at(static_cast<SimTime>(i) * 5 * kMillisecond,
               [&] { mp.send(packet_of(sim, 500)); });
  }
  sim.arm_at(100 * kMillisecond, [&] { mp.revive_path(1); });
  sim.run();
  const auto& p1 = mp.path_stats(1);
  // Revive alone does not restore traffic: 4 consecutive probe
  // deliveries (one per 20 ms) had to prove the path first.
  EXPECT_FALSE(p1.killed);
  EXPECT_FALSE(p1.down);
  EXPECT_EQ(p1.failbacks, 1u);
  EXPECT_EQ(mp.stats().failbacks, 1u);
  EXPECT_GE(p1.probes, 4u);
  // Once back, the per-packet spray resumed across both paths.
  EXPECT_GT(p1.tx_packets, p1.probes);
  EXPECT_EQ(mp.stats().killed_path_sends, 0u);
  expect_conservation(mp);
}

TEST(Multipath, NoHealthyPathDegradesToBestEffort) {
  Simulator sim;
  Rng rng(8);
  CountingSink sink;
  MultipathConfig cfg;
  auto paths = clean_paths(1);
  paths[0].link.loss_rate = 1.0;
  MultipathScheduler mp(sim, cfg, std::move(paths), sink, rng);
  for (int i = 0; i < 60; ++i) {
    sim.arm_at(static_cast<SimTime>(i) * 5 * kMillisecond,
               [&] { mp.send(packet_of(sim, 500)); });
  }
  sim.run();
  // The only path went down, yet sends kept flowing (best-effort): the
  // transport's give-up machinery owns the endgame, not the sprayer.
  EXPECT_TRUE(mp.path_stats(0).down);
  EXPECT_EQ(mp.stats().failovers, 1u);
  EXPECT_GT(mp.stats().no_healthy_sends, 0u);
  EXPECT_EQ(mp.path_stats(0).tx_packets, 60u);
  EXPECT_EQ(mp.path_stats(0).lost, 60u);
  expect_conservation(mp);
}

TEST(Multipath, PrivateGilbertElliottLossFeedsEvidence) {
  Simulator sim;
  Rng rng(9);
  CountingSink sink;
  MultipathConfig cfg;
  auto paths = clean_paths(2);
  paths[1].faults = GilbertElliottConfig::with_mean_loss(0.3, 4.0);
  MultipathScheduler mp(sim, cfg, std::move(paths), sink, rng);
  for (int i = 0; i < 200; ++i) {
    sim.arm_at(static_cast<SimTime>(i) * kMillisecond,
               [&] { mp.send(packet_of(sim, 500)); });
  }
  sim.run();
  const auto& p1 = mp.path_stats(1);
  EXPECT_GT(p1.ge_drops, 0u);
  // A GE-eaten packet never reaches the link, so the silence became
  // loss evidence at the deadline and conservation still closes.
  EXPECT_GE(p1.lost, p1.ge_drops);
  expect_conservation(mp);
}

// --------------------------------------------------- observability

TEST(MultipathObs, RegistryAndTraceAgreeWithSchedulerStats) {
  Simulator sim;
  Rng rng(10);
  CountingSink sink;
  MetricsRegistry reg;
  ChunkTracer tracer(1 << 12);
  ObsContext obs;
  obs.metrics = &reg;
  obs.tracer = &tracer;
  MultipathConfig cfg;
  cfg.obs = &obs;
  auto paths = clean_paths(2);
  paths[1].link.loss_rate = 1.0;
  MultipathScheduler mp(sim, cfg, std::move(paths), sink, rng);
  for (int i = 0; i < 40; ++i) {
    sim.arm_at(static_cast<SimTime>(i) * 2 * kMillisecond,
               [&] { mp.send(packet_of(sim, 500)); });
  }
  sim.run();
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string pre = "mpath.path" + std::to_string(i) + ".";
    const auto& ps = mp.path_stats(i);
    EXPECT_EQ(reg.counter(pre + "tx_packets").value(), ps.tx_packets);
    EXPECT_EQ(reg.counter(pre + "delivered").value(), ps.delivered);
    EXPECT_EQ(reg.counter(pre + "lost").value(), ps.lost);
    EXPECT_EQ(reg.counter(pre + "probes").value(), ps.probes);
  }
  EXPECT_EQ(reg.counter("mpath.failovers").value(), mp.stats().failovers);
  EXPECT_EQ(reg.counter("mpath.failbacks").value(), mp.stats().failbacks);
  // Every spray decision and the failover left trace events behind.
  std::uint64_t selected = 0, failover = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind == TraceEventKind::kPathSelected) ++selected;
    if (e.kind == TraceEventKind::kPathFailover) ++failover;
  }
  EXPECT_EQ(selected, mp.stats().sprayed);
  EXPECT_EQ(failover, mp.stats().failovers);
}

}  // namespace
}  // namespace chunknet
