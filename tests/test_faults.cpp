// Tests for the hostile-network fault layer: Gilbert–Elliott burst
// loss statistics, blackout windows, bit-flip corruption, the
// misbehaving header-rewriting relay (detected end to end per Table 1),
// plus route-flap and GapNak-convergence property tests.
#include <gtest/gtest.h>

#include <memory>

#include "src/chunk/codec.hpp"
#include "src/netsim/faults.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/simulator.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"

namespace chunknet {
namespace {

// ------------------------------------------------- Gilbert–Elliott

TEST(GilbertElliott, WithMeanLossSolvesChainParameters) {
  const auto cfg = GilbertElliottConfig::with_mean_loss(0.05, 4.0);
  EXPECT_DOUBLE_EQ(cfg.p_bad_to_good, 0.25);  // 1 / burst
  EXPECT_NEAR(cfg.p_good_to_bad, 0.25 * 0.05 / 0.95, 1e-12);
  EXPECT_NEAR(cfg.mean_loss(), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(GilbertElliottConfig::with_mean_loss(0.0, 4.0).mean_loss(),
                   0.0);
}

TEST(GilbertElliott, LongRunLossRateApproximatelyHonoured) {
  Rng rng(42);
  GilbertElliott ge(GilbertElliottConfig::with_mean_loss(0.05, 8.0), rng);
  const int n = 200000;
  int lost = 0;
  for (int i = 0; i < n; ++i) {
    if (ge.lose()) ++lost;
  }
  const double rate = static_cast<double>(lost) / n;
  EXPECT_NEAR(rate, 0.05, 0.01);
  // Mean loss-run length ≈ the configured burst length (geometric with
  // mean 1/r = 8 packets per bad-state visit).
  const double run = static_cast<double>(lost) / static_cast<double>(ge.bursts());
  EXPECT_GT(run, 6.0);
  EXPECT_LT(run, 10.0);
}

TEST(GilbertElliott, BurstyChainHasFewerLongerBurstsThanIid) {
  // Same mean loss, different burstiness: the burst=8 chain concentrates
  // its losses in far fewer runs than the burst=1 (i.i.d.) chain.
  Rng rng_a(7);
  Rng rng_b(7);
  GilbertElliott bursty(GilbertElliottConfig::with_mean_loss(0.05, 8.0), rng_a);
  GilbertElliott iid(GilbertElliottConfig::with_mean_loss(0.05, 1.0), rng_b);
  for (int i = 0; i < 100000; ++i) {
    bursty.lose();
    iid.lose();
  }
  EXPECT_GT(iid.bursts(), 2 * bursty.bursts());
}

// --------------------------------------------------- FaultInjector

class CollectingSink final : public PacketSink {
 public:
  void on_packet(SimPacket pkt) override { packets.push_back(std::move(pkt)); }
  std::vector<SimPacket> packets;
};

SimPacket packet_of(Simulator& sim, std::size_t bytes, std::uint8_t fill = 0) {
  SimPacket p;
  p.bytes.assign(bytes, fill);
  p.id = sim.next_packet_id();
  p.created_at = sim.now();
  return p;
}

TEST(FaultInjector, BlackoutWindowsDropEverythingInside) {
  Simulator sim;
  Rng rng(3);
  CollectingSink sink;
  FaultConfig fc;
  fc.blackout_interval = 100 * kMillisecond;
  fc.blackout_duration = 30 * kMillisecond;
  FaultInjector inj(sim, fc, sink, rng);
  // 20 packets at 10 ms spacing: t ∈ {0,10,20} and {100,110,120} fall
  // inside the two blackout windows.
  for (int i = 0; i < 20; ++i) {
    sim.arm_at(static_cast<SimTime>(i) * 10 * kMillisecond,
               [&] { inj.on_packet(packet_of(sim, 64)); });
  }
  sim.run();
  EXPECT_EQ(inj.stats().offered, 20u);
  EXPECT_EQ(inj.stats().dropped_blackout, 6u);
  EXPECT_EQ(inj.stats().delivered, 14u);
  EXPECT_EQ(sink.packets.size(), 14u);
}

TEST(FaultInjector, StatsConserveEveryPacket) {
  Simulator sim;
  Rng rng(4);
  CollectingSink sink;
  FaultConfig fc;
  fc.gilbert_elliott = GilbertElliottConfig::with_mean_loss(0.2, 3.0);
  FaultInjector inj(sim, fc, sink, rng);
  for (int i = 0; i < 5000; ++i) inj.on_packet(packet_of(sim, 64));
  const auto& st = inj.stats();
  EXPECT_EQ(st.offered, 5000u);
  EXPECT_EQ(st.offered, st.delivered + st.dropped_loss + st.dropped_blackout);
  EXPECT_GT(st.dropped_loss, 0u);
  EXPECT_GT(st.loss_bursts, 0u);
  EXPECT_EQ(sink.packets.size(), st.delivered);
}

TEST(FaultInjector, HeaderFlipsConfinedToHeaderRegion) {
  Simulator sim;
  Rng rng(5);
  CollectingSink sink;
  FaultConfig fc;
  fc.header_flip_rate = 1.0;
  fc.header_region_bytes = 38;
  FaultInjector inj(sim, fc, sink, rng);
  for (int i = 0; i < 64; ++i) inj.on_packet(packet_of(sim, 256));
  EXPECT_EQ(inj.stats().header_corrupted, 64u);
  for (const auto& p : sink.packets) {
    std::size_t flipped = 0;
    std::size_t last_at = 0;
    for (std::size_t i = 0; i < p.bytes.size(); ++i) {
      if (p.bytes[i] != 0) {
        ++flipped;
        last_at = i;
      }
    }
    EXPECT_EQ(flipped, 1u);  // exactly one single-bit flip
    EXPECT_LT(last_at, 38u);
  }
}

TEST(FaultInjector, PayloadFlipsLandPastHeaderRegion) {
  Simulator sim;
  Rng rng(6);
  CollectingSink sink;
  FaultConfig fc;
  fc.payload_flip_rate = 1.0;
  fc.header_region_bytes = 38;
  FaultInjector inj(sim, fc, sink, rng);
  for (int i = 0; i < 64; ++i) inj.on_packet(packet_of(sim, 256));
  EXPECT_EQ(inj.stats().payload_corrupted, 64u);
  for (const auto& p : sink.packets) {
    for (std::size_t i = 0; i < 38; ++i) EXPECT_EQ(p.bytes[i], 0);
  }
}

// --------------------------------------------- header-rewriting relay

Chunk data_chunk(std::uint32_t csn, std::uint16_t len) {
  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 4;
  c.h.len = len;
  c.h.conn = {7, csn, false};
  c.h.tpdu = {1, csn, false};
  c.h.xpdu = {1, csn, false};
  c.payload.assign(static_cast<std::size_t>(4) * len, 0x5A);
  return c;
}

TEST(RewriteChunkField, FlipsExactlyTheAddressedField) {
  Rng rng(8);
  auto bytes =
      encode_packet(std::vector<Chunk>{data_chunk(100, 8)}, 1500);
  const auto original = decode_packet(bytes);
  ASSERT_TRUE(original.ok);

  ASSERT_TRUE(rewrite_chunk_field(bytes, ChunkField::kCsn, rng));
  auto parsed = decode_packet(bytes);
  ASSERT_TRUE(parsed.ok);
  // High-order byte of C.SN flipped; everything else untouched.
  EXPECT_EQ(parsed.chunks[0].h.conn.sn,
            original.chunks[0].h.conn.sn ^ 0x10000000u);
  EXPECT_EQ(parsed.chunks[0].h.tpdu.sn, original.chunks[0].h.tpdu.sn);
  EXPECT_EQ(parsed.chunks[0].payload, original.chunks[0].payload);
}

TEST(RewriteChunkField, PayloadRewriteLeavesHeaderIntact) {
  Rng rng(9);
  auto bytes = encode_packet(std::vector<Chunk>{data_chunk(0, 8)}, 1500);
  ASSERT_TRUE(rewrite_chunk_field(bytes, ChunkField::kPayload, rng));
  auto parsed = decode_packet(bytes);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.chunks[0].h.conn.sn, 0u);
  EXPECT_EQ(parsed.chunks[0].payload[0], 0x5A ^ 0xFF);
}

TEST(RewriteChunkField, MalformedOrChunklessPacketsRefused) {
  Rng rng(10);
  std::vector<std::uint8_t> junk{0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_FALSE(rewrite_chunk_field(junk, ChunkField::kCsn, rng));
  std::vector<std::uint8_t> empty;
  EXPECT_FALSE(rewrite_chunk_field(empty, ChunkField::kCsn, rng));
  // A packet holding only an ACK chunk has no data chunk to rewrite.
  auto ack = encode_packet(
      std::vector<Chunk>{make_ack_chunk(7, 1, true)}, 1500);
  EXPECT_FALSE(rewrite_chunk_field(ack, ChunkField::kPayload, rng));
}

TEST(HeaderRewritingRelay, CountsRewritesByField) {
  Rng rng(11);
  HeaderRewriteConfig cfg;
  cfg.rewrite_rate = 1.0;
  cfg.field = ChunkField::kTsn;
  HeaderRewriteStats stats;
  RelayFn relay = header_rewriting_relay(cfg, rng, &stats);
  for (int i = 0; i < 10; ++i) {
    auto out = relay(
        encode_packet(std::vector<Chunk>{data_chunk(0, 8)}, 1500), 1500);
    ASSERT_EQ(out.size(), 1u);
  }
  EXPECT_EQ(stats.packets_in, 10u);
  EXPECT_EQ(stats.rewrites, 10u);
  EXPECT_EQ(stats.by_field[static_cast<std::size_t>(ChunkField::kTsn)], 10u);
}

// ------------------------------------------------------- end to end

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  return v;
}

/// Full sender → faults/relay → receiver loop. The `mangle` sink sits
/// where a misbehaving in-network box would: on the path between the
/// forward link and the receiver.
struct Harness {
  Simulator sim;
  Rng rng{1993};
  std::unique_ptr<ChunkTransportReceiver> receiver;
  std::unique_ptr<ChunkTransportSender> sender;
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;
  std::vector<TpduOutcome> outcomes;

  struct RelaySink final : public PacketSink {
    Simulator* sim{nullptr};
    PacketSink* inner{nullptr};
    RelayFn relay;
    void on_packet(SimPacket pkt) override {
      if (!relay) {
        inner->on_packet(std::move(pkt));
        return;
      }
      const SimTime created = pkt.created_at;
      for (auto& body : relay(std::move(pkt.bytes), 1500)) {
        SimPacket p;
        p.bytes = std::move(body);
        p.id = sim->next_packet_id();
        p.created_at = created;
        inner->on_packet(std::move(p));
      }
    }
  };
  RelaySink relay_sink;

  Harness(LinkConfig fwd_cfg, FaultConfig fault_cfg, RelayFn relay,
          std::size_t stream_bytes, bool selective = false,
          SimTime timeout = 20 * kMillisecond) {
    ReceiverConfig rc;
    rc.connection_id = 7;
    rc.app_buffer_bytes = stream_bytes;
    if (selective) rc.gap_nak_delay = 30 * kMillisecond;
    rc.on_tpdu = [this](const TpduOutcome& o) { outcomes.push_back(o); };
    rc.send_control = [this](Chunk ack) {
      auto pkt = encode_packet(std::vector<Chunk>{std::move(ack)}, 1500);
      SimPacket sp;
      sp.bytes = std::move(pkt);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      reverse->send(std::move(sp));
    };
    receiver = std::make_unique<ChunkTransportReceiver>(sim, std::move(rc));

    relay_sink.sim = &sim;
    relay_sink.inner = receiver.get();
    relay_sink.relay = std::move(relay);
    faults = std::make_unique<FaultInjector>(sim, fault_cfg, relay_sink, rng);
    forward = std::make_unique<Link>(sim, fwd_cfg, *faults, rng);

    SenderConfig sc;
    sc.framer.connection_id = 7;
    sc.framer.tpdu_elements = 512;
    sc.framer.xpdu_elements = 128;
    sc.framer.max_chunk_elements = 64;
    sc.mtu = fwd_cfg.mtu;
    sc.retransmit_timeout = timeout;
    sc.selective_retransmit = selective;
    sc.send_packet = [this](std::vector<std::uint8_t> bytes) {
      SimPacket sp;
      sp.bytes = std::move(bytes);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      forward->send(std::move(sp));
    };
    sender = std::make_unique<ChunkTransportSender>(sim, std::move(sc));

    LinkConfig rev_cfg;
    rev_cfg.prop_delay = 1 * kMillisecond;
    reverse = std::make_unique<Link>(sim, rev_cfg, *sender, rng);
  }

  bool delivered_exactly(const std::vector<std::uint8_t>& stream) const {
    return receiver->stream_complete(stream.size() / 4) &&
           std::equal(stream.begin(), stream.end(),
                      receiver->app_data().begin());
  }
};

TEST(FaultE2E, SurvivesGilbertElliottBurstLoss) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  FaultConfig fc;
  fc.gilbert_elliott = GilbertElliottConfig::with_mean_loss(0.05, 4.0);
  const auto stream = pattern(64 * 1024);
  Harness h(cfg, fc, nullptr, stream.size());
  h.sender->send_stream(stream);
  h.sim.run(60 * kSecond);

  EXPECT_GT(h.faults->stats().dropped_loss, 0u);
  EXPECT_TRUE(h.sender->all_acked());
  EXPECT_TRUE(h.delivered_exactly(stream));
}

TEST(FaultE2E, SurvivesBlackoutWindows) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  FaultConfig fc;
  fc.blackout_interval = 200 * kMillisecond;
  fc.blackout_duration = 50 * kMillisecond;
  const auto stream = pattern(32 * 1024);
  Harness h(cfg, fc, nullptr, stream.size());
  h.sender->send_stream(stream);
  h.sim.run(60 * kSecond);

  EXPECT_GT(h.faults->stats().dropped_blackout, 0u);
  EXPECT_TRUE(h.sender->all_acked());
  EXPECT_TRUE(h.delivered_exactly(stream));
}

TEST(FaultE2E, GaveUpSenderNeverReportsDelivery) {
  // Total loss: the sender exhausts its retransmit budget on every
  // TPDU. It must report failure — "gave up" is not "acked".
  LinkConfig cfg;
  cfg.mtu = 1500;
  FaultConfig fc;
  fc.gilbert_elliott = GilbertElliottConfig::with_mean_loss(1.0, 4.0);
  const auto stream = pattern(16 * 1024);
  Harness h(cfg, fc, nullptr, stream.size());
  h.sender->send_stream(stream);
  h.sim.run(60 * kSecond);

  EXPECT_GT(h.sender->stats().gave_up, 0u);
  EXPECT_TRUE(h.sender->finished());  // nothing outstanding any more
  EXPECT_TRUE(h.sender->failed());
  EXPECT_FALSE(h.sender->all_acked());
  EXPECT_FALSE(h.receiver->stream_complete(stream.size() / 4));
}

TEST(FaultE2E, PayloadRewritingRelayCaughtByErrorDetectionCode) {
  // A relay corrupting data in flight: virtual reassembly and the SN
  // consistency checks all pass, so only the end-to-end WSC-2 code can
  // catch it (Table 1, "Error Detection Code").
  LinkConfig cfg;
  cfg.mtu = 1500;
  Rng relay_rng(77);
  HeaderRewriteConfig rw;
  rw.rewrite_rate = 0.10;
  rw.field = ChunkField::kPayload;
  HeaderRewriteStats rw_stats;
  const auto stream = pattern(32 * 1024);
  Harness h(cfg, FaultConfig{}, header_rewriting_relay(rw, relay_rng, &rw_stats),
            stream.size());
  h.sender->send_stream(stream);
  h.sim.run(60 * kSecond);

  EXPECT_GT(rw_stats.rewrites, 0u);
  bool saw_code_mismatch = false;
  for (const auto& o : h.outcomes) {
    if (o.verdict == TpduVerdict::kCodeMismatch) saw_code_mismatch = true;
  }
  EXPECT_TRUE(saw_code_mismatch);
  EXPECT_TRUE(h.sender->all_acked());
  EXPECT_TRUE(h.delivered_exactly(stream));
}

TEST(FaultE2E, XsnRewritingRelayCaughtByConsistencyCheck) {
  // A relay rewriting X.SN breaks the (C.SN − X.SN) invariant: Table 1
  // says the consistency check catches label rewrites that reassembly
  // and the code cannot see.
  LinkConfig cfg;
  cfg.mtu = 1500;
  Rng relay_rng(78);
  HeaderRewriteConfig rw;
  rw.rewrite_rate = 0.15;
  rw.field = ChunkField::kXsn;
  HeaderRewriteStats rw_stats;
  const auto stream = pattern(32 * 1024);
  Harness h(cfg, FaultConfig{}, header_rewriting_relay(rw, relay_rng, &rw_stats),
            stream.size());
  h.sender->send_stream(stream);
  h.sim.run(60 * kSecond);

  EXPECT_GT(rw_stats.rewrites, 0u);
  bool saw_consistency = false;
  for (const auto& o : h.outcomes) {
    if (o.verdict == TpduVerdict::kConsistencyFailure) saw_consistency = true;
  }
  EXPECT_TRUE(saw_consistency);
  EXPECT_TRUE(h.sender->all_acked());
  EXPECT_TRUE(h.delivered_exactly(stream));
}

TEST(FaultE2E, RouteFlapsNeverChangeDeliveredBytes) {
  // Property: whatever the route-flap cadence, the delivered stream is
  // byte-identical — disorder may cost buffering or retransmits but
  // never correctness.
  const auto stream = pattern(32 * 1024);
  for (const SimTime flap :
       {SimTime{0}, 20 * kMillisecond, 5 * kMillisecond}) {
    LinkConfig cfg;
    cfg.mtu = 1500;
    cfg.lanes = 4;
    cfg.lane_skew = 200 * kMicrosecond;
    cfg.route_flap_interval = flap;
    Harness h(cfg, FaultConfig{}, nullptr, stream.size());
    h.sender->send_stream(stream);
    h.sim.run(60 * kSecond);
    EXPECT_TRUE(h.sender->all_acked()) << "flap interval " << flap;
    EXPECT_TRUE(h.delivered_exactly(stream)) << "flap interval " << flap;
  }
}

TEST(FaultE2E, GapNakSelectiveRetransmitConvergesUnderBurstLoss) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  FaultConfig fc;
  fc.gilbert_elliott = GilbertElliottConfig::with_mean_loss(0.05, 4.0);
  const auto stream = pattern(64 * 1024);
  Harness h(cfg, fc, nullptr, stream.size(), /*selective=*/true,
            /*timeout=*/500 * kMillisecond);
  h.sender->send_stream(stream);
  h.sim.run(120 * kSecond);

  EXPECT_GT(h.sender->stats().gap_naks_honoured, 0u);
  EXPECT_TRUE(h.sender->all_acked());
  EXPECT_TRUE(h.delivered_exactly(stream));
}

}  // namespace
}  // namespace chunknet
