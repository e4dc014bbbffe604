// The chaos scenario engine: seed-determinism, oracle soundness over a
// soak batch, oracle *sensitivity* (a deliberately unsafe configuration
// must be caught), scenario-text round-trips, and the minimizer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "src/chaos/harness.hpp"
#include "src/chaos/scenario.hpp"

#ifndef CHUNKNET_SOURCE_DIR
#error "CHUNKNET_SOURCE_DIR must point at the repository root"
#endif

namespace chunknet {
namespace {

TEST(ChaosScenario, GenerationIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull, ~0ull}) {
    const ChaosScenario a = make_scenario(seed);
    const ChaosScenario b = make_scenario(seed);
    EXPECT_EQ(to_text(a), to_text(b)) << "seed " << seed;
  }
  // ...and different seeds explore different scenarios.
  EXPECT_NE(to_text(make_scenario(1)), to_text(make_scenario(2)));
}

TEST(ChaosScenario, RunIsDeterministic) {
  const ChaosScenario sc = make_scenario(7);
  const ChaosResult a = run_chaos(sc);
  const ChaosResult b = run_chaos(sc);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.tpdus_accepted, b.tpdus_accepted);
  EXPECT_EQ(a.tpdus_rejected, b.tpdus_rejected);
  EXPECT_EQ(a.tpdus_gave_up, b.tpdus_gave_up);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.data_chunks, b.data_chunks);
  EXPECT_EQ(a.sim_end, b.sim_end);
}

TEST(ChaosScenario, SoakBatchHoldsEveryOracle) {
  // A slice of the soak the tool runs at larger scale; a failure here
  // prints the exact replay command a developer needs.
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const ChaosResult r = run_chaos(make_scenario(seed));
    EXPECT_TRUE(r.ok) << "seed " << seed
                      << " failed (reproduce with: chaos_soak --replay "
                      << seed << ")\n  first failure: "
                      << (r.failures.empty() ? "?" : r.failures.front());
  }
}

TEST(ChaosScenario, GeneratorRespectsModeSafetyConstraints) {
  // Header-corrupting scenarios must come out reassemble-first and
  // payload-corrupting ones must never come out reorder-first — the two
  // mode-safety rules the sensitivity tests below justify.
  int corrupting = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const ChaosScenario sc = make_scenario(seed);
    if (sc.corrupts_headers()) {
      EXPECT_EQ(sc.mode, DeliveryMode::kReassemble) << "seed " << seed;
    }
    if (sc.corrupts_anything()) {
      ++corrupting;
      EXPECT_NE(sc.mode, DeliveryMode::kReorder) << "seed " << seed;
    }
  }
  EXPECT_GT(corrupting, 50);  // the distribution actually exercises faults
}

TEST(ChaosScenario, ChurnIsDrawnOnlyIntoOverloadRuns) {
  int churning = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const ChaosScenario sc = make_scenario(seed);
    if (sc.churn_connections == 0) continue;
    ++churning;
    EXPECT_TRUE(sc.overloaded()) << "seed " << seed;
    EXPECT_GT(sc.churn_interval, 0u) << "seed " << seed;
  }
  // Roughly an eighth of seeds (overload 1/4 × churn 1/2) churn; the
  // distribution must actually reach the dimension.
  EXPECT_GT(churning, 15);
}

TEST(ChaosScenario, ConnectionChurnRunHoldsEveryOracle) {
  // A hand-built churn scenario sized so the governor MUST refuse some
  // churn admissions: three live transfers reserve 24 KiB of the 48 KiB
  // budget, churn opens arrive five-concurrent at 8 KiB apiece, so the
  // headroom runs out mid-churn. The run exercises admission, TTL'd
  // refusal memory, and close/release against the sharded
  // demultiplexer, and every oracle still holds.
  ChaosScenario sc;
  sc.seed = 99;
  sc.connections = 3;
  sc.offered_load = 1.5;
  sc.governor_budget = 48 * 1024;
  sc.flow_control = true;
  sc.mode = DeliveryMode::kReassemble;
  sc.churn_connections = 32;
  sc.churn_interval = 2 * kMillisecond;
  ASSERT_TRUE(sc.overloaded());
  const ChaosResult r = run_chaos(sc);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "?" : r.failures.front());
  // The admission tally covers the churn decisions, not just the three
  // long-lived connections.
  EXPECT_GT(r.connections_admitted + r.connections_refused, 3u);
  EXPECT_GT(r.connections_refused, 0u);
}

TEST(ChaosScenario, OfferedLoadAppliesWithOneConnection) {
  // One connection runs through the same demultiplexer pipeline as
  // many, so the offered-load multiplier slows its first hop too.
  ChaosScenario sc;
  sc.seed = 31;
  sc.stream_elements = 16384;   // 64 KiB on an 8 Mb/s first hop: the
  sc.hops[0].rate_bps = 8e6;    // run's length is serialization time
  ASSERT_FALSE(sc.overloaded());
  const ChaosResult base = run_chaos(sc);
  sc.offered_load = 4.0;
  ASSERT_FALSE(sc.overloaded());
  const ChaosResult slowed = run_chaos(sc);
  EXPECT_TRUE(base.ok) << (base.failures.empty() ? "?" : base.failures.front());
  EXPECT_TRUE(slowed.ok)
      << (slowed.failures.empty() ? "?" : slowed.failures.front());
  EXPECT_EQ(base.connections_admitted, 1u);
  EXPECT_GT(slowed.sim_end, base.sim_end);
}

TEST(ChaosMultipath, DrawnOnlyIntoSingleConnectionRuns) {
  int multipath = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const ChaosScenario sc = make_scenario(seed);
    if (!sc.multipath()) continue;
    ++multipath;
    EXPECT_FALSE(sc.overloaded()) << "seed " << seed;
    EXPECT_GE(sc.mp_paths, 2u) << "seed " << seed;
    EXPECT_LE(sc.mp_paths, 4u) << "seed " << seed;
    EXPECT_LT(sc.mp_mode, 3u) << "seed " << seed;
    if (sc.mp_revive_at != 0) {
      EXPECT_GT(sc.mp_revive_at, sc.mp_kill_at) << "seed " << seed;
    }
  }
  // ~15% of seeds (non-overload 3/4 × multipath 1/5) spray; the
  // distribution must actually reach the dimension.
  EXPECT_GT(multipath, 20);
}

TEST(ChaosMultipath, SprayedRunWithKillAndReviveHoldsEveryOracle) {
  // Hand-built worst case for the spray plane: three skewed paths,
  // bursty per-path loss, and a mid-run administrative kill of path 1
  // followed by a revival — oracle 7 must see the failover, the
  // failback probes, and an exactly-closed per-path conservation.
  ChaosScenario sc;
  sc.seed = 4242;
  sc.mode = DeliveryMode::kReassemble;
  sc.stream_elements = 16384;        // 64 KiB so the transfer...
  sc.hops[0].rate_bps = 8e6;         // ...spans the kill window
  sc.mp_paths = 3;
  sc.mp_mode = 0;  // per-packet spray: maximum reordering
  sc.mp_skew = 1500 * kMicrosecond;
  sc.mp_loss = 0.1;
  sc.mp_kill_at = 60 * kMillisecond;
  sc.mp_kill_path = 1;
  sc.mp_revive_at = 200 * kMillisecond;
  sc.max_retransmits = 16;
  ASSERT_TRUE(sc.multipath());
  ASSERT_FALSE(sc.overloaded());
  const ChaosResult r = run_chaos(sc);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "?" : r.failures.front());
  EXPECT_GE(r.mp_failovers, 1u);  // the kill surfaced
  EXPECT_GT(r.mp_lost, 0u);      // loss evidence flowed
  EXPECT_GT(r.tpdus_accepted, 0u);
}

TEST(ChaosMultipath, KillWithoutReviveStillHoldsEveryOracle) {
  // The degraded endgame: one of two paths dies and stays dead, so the
  // transport finishes the stream on the survivor alone.
  ChaosScenario sc;
  sc.seed = 4243;
  sc.mode = DeliveryMode::kReassemble;
  sc.mp_paths = 2;
  sc.mp_mode = 1;  // weighted round-robin
  sc.mp_skew = 500 * kMicrosecond;
  sc.mp_kill_at = 40 * kMillisecond;
  sc.mp_kill_path = 0;
  sc.max_retransmits = 16;
  const ChaosResult r = run_chaos(sc);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "?" : r.failures.front());
  EXPECT_GE(r.mp_failovers, 1u);
  EXPECT_EQ(r.mp_failbacks, 0u);  // nothing ever proved the dead path
  EXPECT_GT(r.tpdus_accepted, 0u);
}

TEST(ChaosMultipath, OverloadedSprayedRunHoldsEveryOracle) {
  // Multipath and overload together, a pairing the generator never
  // draws: three credit-paced connections under one governor share a
  // plane of three sprayed paths, one of which dies mid-transfer and
  // later comes back.
  ChaosScenario sc;
  sc.seed = 4246;
  sc.mode = DeliveryMode::kReassemble;
  sc.stream_elements = 16384;        // 64 KiB per connection so the
  sc.hops[0].rate_bps = 8e6;         // transfers span the kill window
  sc.connections = 3;
  sc.governor_budget = 96 * 1024;
  sc.flow_control = true;
  sc.mp_paths = 3;
  sc.mp_mode = 0;  // per-packet spray
  sc.mp_skew = 1 * kMillisecond;
  sc.mp_kill_at = 60 * kMillisecond;
  sc.mp_kill_path = 2;
  sc.mp_revive_at = 250 * kMillisecond;
  sc.max_retransmits = 16;
  ASSERT_TRUE(sc.overloaded());
  ASSERT_TRUE(sc.multipath());
  const ChaosResult r = run_chaos(sc);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "?" : r.failures.front());
  EXPECT_EQ(r.connections_admitted, 3u);
  EXPECT_GE(r.mp_failovers, 1u);
  EXPECT_GT(r.tpdus_accepted, 0u);
}

TEST(ChaosMultipath, SprayedRunReplaysBitForBit) {
  ChaosScenario sc;
  sc.seed = 4244;
  sc.mode = DeliveryMode::kReassemble;
  sc.mp_paths = 4;
  sc.mp_mode = 2;  // flowlet
  sc.mp_skew = 800 * kMicrosecond;
  sc.mp_loss = 0.03;
  const ChaosResult a = run_chaos(sc);
  const ChaosResult b = run_chaos(sc);
  EXPECT_TRUE(a.ok) << (a.failures.empty() ? "?" : a.failures.front());
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.tpdus_accepted, b.tpdus_accepted);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.mp_failovers, b.mp_failovers);
  EXPECT_EQ(a.mp_failbacks, b.mp_failbacks);
  EXPECT_EQ(a.mp_lost, b.mp_lost);
  EXPECT_EQ(a.sim_end, b.sim_end);
}

TEST(ChaosMultipath, FieldsRoundTripThroughText) {
  ChaosScenario sc;
  sc.seed = 4245;
  sc.mp_paths = 3;
  sc.mp_mode = 2;
  sc.mp_skew = 750 * kMicrosecond;
  sc.mp_loss = 0.0125;
  sc.mp_kill_at = 80 * kMillisecond;
  sc.mp_revive_at = 160 * kMillisecond;
  sc.mp_kill_path = 2;
  const auto parsed = parse_scenario_text(to_text(sc));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mp_paths, 3u);
  EXPECT_EQ(parsed->mp_mode, 2u);
  EXPECT_EQ(parsed->mp_skew, 750 * kMicrosecond);
  EXPECT_EQ(parsed->mp_loss, 0.0125);
  EXPECT_EQ(parsed->mp_kill_at, 80 * kMillisecond);
  EXPECT_EQ(parsed->mp_revive_at, 160 * kMillisecond);
  EXPECT_EQ(parsed->mp_kill_path, 2u);
  EXPECT_EQ(to_text(*parsed), to_text(sc));
}

/// The documented-unsafe configuration: header bit-flips with
/// immediate-mode delivery. A flipped low-order C.SN byte redirects a
/// chunk's placement into a neighbouring TPDU's already-delivered
/// region (the E11c trade-off); reassemble-first delivery is the safe
/// mode. Seed 1005 deterministically exhibits the scribble. (Seed 1003
/// did, until overlap-as-framing-evidence rejection changed the
/// retransmission dynamics under corruption and that seed went clean.)
ChaosScenario unsafe_header_corruption_scenario() {
  ChaosScenario sc;
  sc.seed = 1005;
  sc.stream_elements = 4096;
  sc.element_size = 4;
  sc.tpdu_elements = 512;
  sc.max_chunk_elements = 64;
  sc.first_conn_sn = 4294966000u;  // crosses the 2^32 wrap mid-stream
  sc.max_retransmits = 12;
  sc.retransmit_timeout = 20 * kMillisecond;
  sc.header_flip_rate = 0.6;
  sc.mode = DeliveryMode::kImmediate;
  sc.hops = {ChaosHop{}};
  return sc;
}

TEST(ChaosOracles, CatchUnsafeHeaderCorruptionWithImmediateDelivery) {
  const ChaosScenario sc = unsafe_header_corruption_scenario();
  ASSERT_TRUE(sc.corrupts_headers());
  const ChaosResult r = run_chaos(sc);
  ASSERT_FALSE(r.ok);
  bool truthfulness_violation = false;
  for (const std::string& f : r.failures) {
    if (f.find("oracle-1") != std::string::npos) {
      truthfulness_violation = true;
    }
  }
  EXPECT_TRUE(truthfulness_violation)
      << "expected a truthful-delivery (oracle-1) failure, got: "
      << (r.failures.empty() ? "nothing" : r.failures.front());

  // The same scenario under reassemble-first delivery is safe: held
  // data is only placed after the TPDU passes all three Table-1 checks.
  ChaosScenario safe = sc;
  safe.mode = DeliveryMode::kReassemble;
  const ChaosResult rs = run_chaos(safe);
  EXPECT_TRUE(rs.ok) << (rs.failures.empty() ? "" : rs.failures.front());
}

std::optional<ChaosScenario> load_repro(const std::string& name) {
  std::ifstream in(std::string(CHUNKNET_SOURCE_DIR) + "/tests/chaos_repros/" +
                   name);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_scenario_text(text.str());
}

TEST(ChaosOracles, CheckedInUnsafeReproTripsTruthfulDelivery) {
  // tests/chaos_repros/unsafe_immediate_header_corruption.txt is the
  // text form of the fixture above; it must keep failing oracle 1 and
  // keep passing under reassemble-first delivery.
  const auto sc = load_repro("unsafe_immediate_header_corruption.txt");
  ASSERT_TRUE(sc.has_value());
  const ChaosResult r = run_chaos(*sc);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failures.front().rfind("oracle-1", 0), 0u) << r.failures.front();

  ChaosScenario safe = *sc;
  safe.mode = DeliveryMode::kReassemble;
  const ChaosResult rs = run_chaos(safe);
  EXPECT_TRUE(rs.ok) << (rs.failures.empty() ? "" : rs.failures.front());
}

TEST(ChaosOracles, CheckedInSeed251ReproStillFailsOracle5) {
  // tests/chaos_repros/seed_251.txt: reassemble-first delivery with
  // selective retransmission, no corruption. Two transmissions of one
  // chunk are packed into pieces cut at different elements; when they
  // partially overlap at the receiver it counts a framing error and
  // rejects the TPDU: honest re-fragmentation read as corruption. This
  // records the open fault; the overlap fix must flip it to a pass.
  const auto sc = load_repro("seed_251.txt");
  ASSERT_TRUE(sc.has_value());
  const ChaosResult r = run_chaos(*sc);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failures.front().rfind("oracle-5", 0), 0u) << r.failures.front();
}

TEST(ChaosOracles, CheckedInSeed1314ReproHoldsEveryOracle) {
  // tests/chaos_repros/seed_1314.txt: a header flip moved the C.SN of a
  // one-data-chunk TPDU while its T.SN and X.SN stayed put. With no
  // second data chunk to compare against, the TPDU used to be accepted
  // and its bytes placed at the wrong offset (oracle 1). The ED chunk's
  // starting C.SN now witnesses (C.SN − T.SN), so the corrupt copy is
  // rejected and the retransmission delivers.
  const auto sc = load_repro("seed_1314.txt");
  ASSERT_TRUE(sc.has_value());
  const ChaosResult r = run_chaos(*sc);
  EXPECT_TRUE(r.ok) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_GE(r.tpdus_rejected, 1u);
}

TEST(ChaosOracles, MinimizerShrinksWhilePreservingTheFailure) {
  const ChaosScenario sc = unsafe_header_corruption_scenario();
  const ChaosScenario min = minimize_scenario(sc, /*steps=*/40);
  const ChaosResult r = run_chaos(min);
  EXPECT_FALSE(r.ok) << "minimization lost the failure";
  EXPECT_LE(min.hops.size(), sc.hops.size());
  EXPECT_LE(min.stream_elements, sc.stream_elements);
  // The knobs irrelevant to this failure were shed.
  EXPECT_EQ(min.fault_mean_loss, 0.0);
  EXPECT_EQ(min.ack_loss_rate, 0.0);
  // ...and the essential one was kept.
  EXPECT_GT(min.header_flip_rate, 0.0);
}

TEST(ChaosOracles, MinimizerReturnsPassingScenariosUnchanged) {
  const ChaosScenario sc = make_scenario(5);
  const ChaosScenario min = minimize_scenario(sc, /*steps=*/4);
  EXPECT_EQ(to_text(min), to_text(sc));
}

TEST(ChaosText, RoundTripsThroughParse) {
  for (std::uint64_t seed : {1ull, 13ull, 77ull, 0xFFFFFFFFFFFFFFFFull}) {
    const ChaosScenario sc = make_scenario(seed);
    const std::string text = to_text(sc);
    const auto parsed = parse_scenario_text(text);
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    EXPECT_EQ(to_text(*parsed), text) << "seed " << seed;
    // The parsed scenario replays to the identical result.
    const ChaosResult a = run_chaos(sc);
    const ChaosResult b = run_chaos(*parsed);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.tpdus_accepted, b.tpdus_accepted);
    EXPECT_EQ(a.sim_end, b.sim_end);
  }
}

TEST(ChaosText, CheckedInSeedReprosReserializeByteForByte) {
  // The text format is what keeps a checked-in repro replaying the
  // same scenario: parse then to_text must give back every
  // tests/chaos_repros/seed_*.txt unchanged.
  const std::filesystem::path dir =
      std::filesystem::path(CHUNKNET_SOURCE_DIR) / "tests" / "chaos_repros";
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seed_", 0) != 0 || entry.path().extension() != ".txt") {
      continue;
    }
    ++files;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const auto sc = parse_scenario_text(text.str());
    ASSERT_TRUE(sc.has_value()) << name;
    EXPECT_EQ(to_text(*sc), text.str()) << name;
  }
  EXPECT_GE(files, 2);
}

TEST(ChaosText, SeedRoundTripsAllSixtyFourBits) {
  // Seeds above 2^53 would be mangled by a double round-trip; the
  // parser must treat the seed as an integer.
  ChaosScenario sc;
  sc.seed = 0xFEDCBA9876543210ull;
  const auto parsed = parse_scenario_text(to_text(sc));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, 0xFEDCBA9876543210ull);
}

TEST(ChaosText, RejectsUnknownKeysAndGarbage) {
  EXPECT_FALSE(parse_scenario_text("definitely_not_a_key = 3\n").has_value());
  EXPECT_FALSE(parse_scenario_text("seed\n").has_value());
  EXPECT_FALSE(parse_scenario_text("seed = banana\n").has_value());
  EXPECT_FALSE(parse_scenario_text("hop0.not_a_field = 1\n").has_value());
  // Comments, blank lines and whitespace are fine.
  const auto ok = parse_scenario_text(
      "# comment\n\n  seed = 9  \n\thops = 2\nhop1.mtu = 576\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->seed, 9u);
  ASSERT_EQ(ok->hops.size(), 2u);
  EXPECT_EQ(ok->hops[1].mtu, 576u);
}

}  // namespace
}  // namespace chunknet
