// Tests for the reorder-sensitive in-order baseline: byte-exact
// delivery on a clean path, resequencing-buffer growth and head-of-line
// stalls under lane-skew reordering (the cost §1 says labelling makes
// vanish), duplicate-ACK fast retransmit, and truthful give-up under
// total loss.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/baselines/inorder_stream.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/simulator.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> pattern_stream(std::size_t n) {
  std::vector<std::uint8_t> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return s;
}

SimPacket wrap(Simulator& sim, std::vector<std::uint8_t> bytes) {
  SimPacket p;
  p.bytes = std::move(bytes);
  p.id = sim.next_packet_id();
  p.created_at = sim.now();
  return p;
}

/// Sender -> (forward Link) -> receiver, ACKs teleport back after a
/// fixed delay. The forward link provides the impairments under test.
struct Rig {
  Rig(Simulator& sim, LinkConfig fwd, InOrderStreamConfig cfg, Rng& rng)
      : receiver(sim, 1 << 20,
                 [this, &sim](std::vector<std::uint8_t> bytes) {
                   sim.arm_in(1 * kMillisecond,
                              [this, &sim, b = std::move(bytes)] {
                                     sender->on_packet(wrap(sim, b));
                              });
                 }),
        link(sim, fwd, receiver, rng) {
    cfg.send_packet = [this, &sim](std::vector<std::uint8_t> bytes) {
      link.send(wrap(sim, std::move(bytes)));
    };
    sender = std::make_unique<InOrderStreamSender>(sim, cfg);
  }
  InOrderStreamReceiver receiver;
  Link link;
  std::unique_ptr<InOrderStreamSender> sender;
};

TEST(InOrderStream, CleanPathDeliversByteExactInOrder) {
  Simulator sim;
  Rng rng(1);
  LinkConfig fwd;
  fwd.rate_bps = 622e6;
  fwd.prop_delay = 1 * kMillisecond;
  Rig rig(sim, fwd, InOrderStreamConfig{}, rng);
  const auto stream = pattern_stream(40000);
  rig.sender->send_stream(stream);
  sim.run();
  ASSERT_TRUE(rig.sender->all_acked());
  const auto got = rig.receiver.app_data();
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), stream.begin()));
  // An in-order link never parks a segment or stalls the head of line.
  EXPECT_EQ(rig.receiver.stats().reseq_bytes_peak, 0u);
  EXPECT_EQ(rig.receiver.stats().hol_stalls, 0u);
  EXPECT_EQ(rig.sender->stats().retransmissions, 0u);
}

TEST(InOrderStream, LaneSkewParksSegmentsAndStallsHeadOfLine) {
  Simulator sim;
  Rng rng(2);
  LinkConfig fwd;
  fwd.rate_bps = 622e6;
  fwd.prop_delay = 1 * kMillisecond;
  fwd.lanes = 8;
  fwd.lane_skew = 500 * kMicrosecond;
  Rig rig(sim, fwd, InOrderStreamConfig{}, rng);
  const auto stream = pattern_stream(90000);
  rig.sender->send_stream(stream);
  sim.run();
  ASSERT_TRUE(rig.sender->all_acked());
  const auto got = rig.receiver.app_data();
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), stream.begin()));
  // The reorder costs the chunk transport does not pay: segments
  // parked behind gaps, and delivery stalled at the head of line.
  const auto& rs = rig.receiver.stats();
  EXPECT_GT(rs.reseq_buffered_segments, 0u);
  EXPECT_GT(rs.reseq_bytes_peak, 0u);
  EXPECT_GT(rs.reseq_byte_ns, 0u);
  EXPECT_GT(rs.hol_stalls, 0u);
  EXPECT_GT(rs.hol_stall_ns, 0u);
  // Lane skew also fakes loss signals: duplicate cumulative ACKs.
  EXPECT_GT(rig.sender->stats().dupacks, 0u);
}

TEST(InOrderStream, DupAckTriggersFastRetransmitBeforeRto) {
  Simulator sim;
  Rng rng(3);
  // Drop exactly the first data packet; everything else flows. The
  // later segments make the receiver emit duplicate ACKs for segment 0
  // and the sender must repair via fast retransmit, not an RTO.
  InOrderStreamReceiver* rx = nullptr;
  InOrderStreamSender* tx = nullptr;
  InOrderStreamReceiver receiver(
      sim, 1 << 20, [&](std::vector<std::uint8_t> bytes) {
        sim.arm_in(1 * kMillisecond, [&, b = std::move(bytes)] {
          tx->on_packet(wrap(sim, b));
        });
      });
  rx = &receiver;
  bool dropped_one = false;
  InOrderStreamConfig cfg;
  cfg.retransmit_timeout = 200 * kMillisecond;  // RTO far away
  cfg.send_packet = [&](std::vector<std::uint8_t> bytes) {
    if (!dropped_one) {
      dropped_one = true;
      return;  // the one lost packet
    }
    sim.arm_in(1 * kMillisecond, [&, b = std::move(bytes)] {
      rx->on_packet(wrap(sim, b));
    });
  };
  InOrderStreamSender sender(sim, cfg);
  tx = &sender;
  const auto stream = pattern_stream(20000);
  sender.send_stream(stream);
  sim.run();
  ASSERT_TRUE(sender.all_acked());
  const auto got = receiver.app_data();
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), stream.begin()));
  EXPECT_EQ(sender.stats().fast_retransmits, 1u);
  EXPECT_EQ(sender.stats().timeouts, 0u);
  EXPECT_GE(sender.stats().dupacks,
            static_cast<std::uint64_t>(cfg.dupack_threshold));
  // The loss stalled the head of line until the repair arrived.
  EXPECT_GT(receiver.stats().hol_stall_ns, 0u);
}

TEST(InOrderStream, TotalLossGivesUpTruthfully) {
  Simulator sim;
  Rng rng(4);
  LinkConfig fwd;
  fwd.loss_rate = 1.0;
  InOrderStreamConfig cfg;
  cfg.retransmit_timeout = 10 * kMillisecond;
  cfg.max_retransmits = 3;
  Rig rig(sim, fwd, cfg, rng);
  rig.sender->send_stream(pattern_stream(5000));
  sim.run();
  EXPECT_TRUE(rig.sender->finished());
  EXPECT_TRUE(rig.sender->failed());
  EXPECT_FALSE(rig.sender->all_acked());
  EXPECT_EQ(rig.receiver.bytes_delivered(), 0u);
  EXPECT_GE(rig.sender->stats().timeouts, 3u);
}

}  // namespace
}  // namespace chunknet
