// Tests for the PDU-per-packet baseline transport in both header
// layouts: XTP-like (PduHeader::kXtp) and MTU discovery
// (PduHeader::kCompact).
#include "src/baselines/alt_transports.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/netsim/link.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 2246822519u) >> 11);
  }
  return v;
}

struct PduHarness {
  Simulator sim;
  Rng rng;
  std::unique_ptr<PduPerPacketReceiver> receiver;
  std::unique_ptr<PduPerPacketSender> sender;
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;

  PduHarness(LinkConfig fwd_cfg, PduPerPacketConfig cfg,
             std::size_t stream_bytes, LinkConfig rev_cfg = {},
             std::uint64_t seed = 31)
      : rng(seed) {
    receiver = std::make_unique<PduPerPacketReceiver>(
        sim, cfg.header, stream_bytes, [this](std::vector<std::uint8_t> body) {
          SimPacket sp;
          sp.bytes = std::move(body);
          sp.id = sim.next_packet_id();
          sp.created_at = sim.now();
          reverse->send(std::move(sp));
        });
    forward = std::make_unique<Link>(sim, fwd_cfg, *receiver, rng);
    cfg.send_packet = [this](std::vector<std::uint8_t> bytes) {
      SimPacket sp;
      sp.bytes = std::move(bytes);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      forward->send(std::move(sp));
    };
    sender = std::make_unique<PduPerPacketSender>(sim, std::move(cfg));
    reverse = std::make_unique<Link>(sim, rev_cfg, *sender, rng);
  }
};

PduPerPacketConfig xtp_config(std::size_t mtu) {
  PduPerPacketConfig c;
  c.header = PduHeader::kXtp;
  c.mtu = mtu;
  return c;
}

PduPerPacketConfig compact_config(std::size_t mtu) {
  PduPerPacketConfig c;
  c.header = PduHeader::kCompact;
  c.mtu = mtu;
  return c;
}

TEST(XtpLike, CleanDelivery) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  const auto stream = pattern(32 * 1024);
  PduHarness h(cfg, xtp_config(1500), stream.size());
  h.sender->send_stream(stream);
  h.sim.run();
  EXPECT_TRUE(h.sender->all_acked());
  EXPECT_EQ(h.receiver->bytes_delivered(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
}

TEST(XtpLike, ToleratesDisorder) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  cfg.lanes = 8;
  cfg.lane_skew = 500 * kMicrosecond;
  const auto stream = pattern(32 * 1024);
  PduHarness h(cfg, xtp_config(1500), stream.size());
  h.sender->send_stream(stream);
  h.sim.run();
  EXPECT_EQ(h.receiver->bytes_delivered(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
  EXPECT_EQ(h.sender->stats().retransmissions, 0u);
}

TEST(XtpLike, RecoversFromLoss) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  cfg.loss_rate = 0.08;
  const auto stream = pattern(32 * 1024);
  PduHarness h(cfg, xtp_config(1500), stream.size());
  h.sender->send_stream(stream);
  h.sim.run(20 * kSecond);
  EXPECT_EQ(h.receiver->bytes_delivered(), stream.size());
  EXPECT_GT(h.sender->stats().retransmissions, 0u);
  // The XTP cost (§3.2): per-PDU retransmission loses only one packet's
  // worth each time — but every packet carried the full PDU overhead.
}

TEST(XtpLike, PerPacketOverheadIsConstant) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  const auto stream = pattern(64 * 1024);
  PduHarness h(cfg, xtp_config(1500), stream.size());
  h.sender->send_stream(stream);
  h.sim.run();
  const auto& st = h.sender->stats();
  EXPECT_EQ(st.bytes_sent - stream.size(),
            st.packets_sent *
                (pdu_header_bytes(PduHeader::kXtp) + kPduTrailerBytes));
}

TEST(MtuDiscovery, CleanDeliveryAtPathMtu) {
  LinkConfig cfg;
  cfg.mtu = 296;  // the smallest hop dictates everything
  const auto stream = pattern(16 * 1024);
  PduHarness h(cfg, compact_config(296), stream.size());
  h.sender->send_stream(stream);
  h.sim.run();
  EXPECT_TRUE(h.sender->all_acked());
  EXPECT_EQ(h.receiver->bytes_delivered(), stream.size());
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
}

TEST(MtuDiscovery, NeverExceedsPathMtu) {
  LinkConfig cfg;
  cfg.mtu = 296;
  const auto stream = pattern(8 * 1024);
  PduHarness h(cfg, compact_config(296), stream.size());
  h.sender->send_stream(stream);
  h.sim.run();
  EXPECT_EQ(h.forward->stats().oversize_dropped, 0u);
  EXPECT_EQ(h.receiver->bytes_delivered(), stream.size());
}

TEST(MtuDiscovery, SmallPathMtuCostsManyPdus) {
  // Option 4's penalty: a 296-byte path MTU forces 16 KiB into ~57
  // TPDUs, each with its own error control, vs 1 TPDU for chunks.
  LinkConfig cfg;
  cfg.mtu = 296;
  const auto stream = pattern(16 * 1024);
  PduHarness h(cfg, compact_config(296), stream.size());
  h.sender->send_stream(stream);
  h.sim.run();
  EXPECT_GE(h.sender->stats().pdus_sent, 57u);
}

TEST(MtuDiscovery, CorruptedPduDetectedPerPacket) {
  struct Corruptor final : public PacketSink {
    PacketSink* inner{nullptr};
    int count{0};
    void on_packet(SimPacket pkt) override {
      if (count++ == 3) pkt.bytes[10] ^= 0xFF;
      inner->on_packet(std::move(pkt));
    }
  };
  LinkConfig cfg;
  cfg.mtu = 296;
  const auto stream = pattern(8 * 1024);
  PduHarness h(cfg, compact_config(296), stream.size());
  Corruptor corruptor;
  corruptor.inner = h.receiver.get();
  h.forward = std::make_unique<Link>(h.sim, cfg, corruptor, h.rng);
  h.sender->send_stream(stream);
  h.sim.run(10 * kSecond);
  EXPECT_GT(h.receiver->stats().pdus_bad_check, 0u);
  EXPECT_EQ(h.receiver->bytes_delivered(), stream.size());  // retx healed it
}

// Bench A4's path and stream (MTU 576, 155 Mb/s, 3 ms, 1% loss, four
// lanes 300 us apart, seed 11, 256 KiB), pinned for each header layout
// as recorded when XTP-like and MTU discovery were two separate
// transports: same wire bytes, packets, recovery and delivery timing.
struct A4Golden {
  std::uint64_t bytes_sent;
  std::uint64_t packets_sent;
  std::uint64_t retransmissions;
  std::uint64_t pdus_sent;
  std::uint64_t pdus_ok;
  std::uint64_t latency_samples;
  std::uint64_t latency_sum_ns;
};

void expect_a4_golden(PduHeader header, const A4Golden& want) {
  constexpr std::size_t kStreamBytes = 256 * 1024;
  std::vector<std::uint8_t> stream(kStreamBytes);
  Rng data(42);  // bench_util.hpp pattern_stream
  for (auto& b : stream) b = static_cast<std::uint8_t>(data.next());
  LinkConfig path;
  path.mtu = 576;
  path.rate_bps = 155e6;
  path.prop_delay = 3 * kMillisecond;
  path.loss_rate = 0.01;
  path.lanes = 4;
  path.lane_skew = 300 * kMicrosecond;
  LinkConfig rev;
  rev.prop_delay = 3 * kMillisecond;
  PduPerPacketConfig cfg;
  cfg.header = header;
  cfg.mtu = 576;
  cfg.retransmit_timeout = 60 * kMillisecond;
  PduHarness h(path, std::move(cfg), kStreamBytes, rev, /*seed=*/11);
  h.sender->send_stream(stream);
  h.sim.run(120 * kSecond);

  const auto& s = h.sender->stats();
  const auto& r = h.receiver->stats();
  EXPECT_TRUE(h.sender->all_acked());
  EXPECT_EQ(h.receiver->bytes_delivered(), kStreamBytes);
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
  EXPECT_EQ(s.bytes_sent, want.bytes_sent);
  EXPECT_EQ(s.packets_sent, want.packets_sent);
  EXPECT_EQ(s.retransmissions, want.retransmissions);
  EXPECT_EQ(s.pdus_sent, want.pdus_sent);
  EXPECT_EQ(s.gave_up, 0u);
  EXPECT_EQ(r.pdus_ok, want.pdus_ok);
  EXPECT_EQ(r.pdus_bad_check, 0u);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.bus_bytes, kStreamBytes);
  std::uint64_t sum = 0;
  for (const double ns : r.delivery_latency_ns) {
    sum += static_cast<std::uint64_t>(ns);
  }
  EXPECT_EQ(r.delivery_latency_ns.size(), want.latency_samples);
  EXPECT_EQ(sum, want.latency_sum_ns);
}

TEST(PduPerPacketGolden, A4PathXtpHeader) {
  expect_a4_golden(PduHeader::kXtp, {.bytes_sent = 274464,
                                     .packets_sent = 477,
                                     .retransmissions = 5,
                                     .pdus_sent = 472,
                                     .pdus_ok = 472,
                                     .latency_samples = 65536,
                                     .latency_sum_ns = 679655607254});
}

TEST(PduPerPacketGolden, A4PathCompactHeader) {
  expect_a4_golden(PduHeader::kCompact, {.bytes_sent = 270128,
                                         .packets_sent = 469,
                                         .retransmissions = 5,
                                         .pdus_sent = 464,
                                         .pdus_ok = 464,
                                         .latency_samples = 65420,
                                         .latency_sum_ns = 671163348068});
}

}  // namespace
}  // namespace chunknet
