// Tests for selective retransmission (the GapNak extension): the
// receiver's virtual reassembly names the exact missing runs; the
// sender cuts stored chunks to those runs with Appendix-C splits and
// resends only them.
#include <gtest/gtest.h>

#include <memory>

#include "src/chunk/codec.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/simulator.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 1103515245u) >> 9);
  }
  return v;
}

struct Harness {
  Simulator sim;
  Rng rng{55};
  std::unique_ptr<ChunkTransportReceiver> receiver;
  std::unique_ptr<ChunkTransportSender> sender;
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;
  /// Drops forward packets by index (deterministic loss pattern).
  std::function<bool(std::uint64_t)> drop_nth;
  std::uint64_t fwd_count{0};

  struct DroppingSink final : public PacketSink {
    Harness* h;
    explicit DroppingSink(Harness* harness) : h(harness) {}
    void on_packet(SimPacket pkt) override {
      const std::uint64_t idx = h->fwd_count++;
      if (h->drop_nth && h->drop_nth(idx)) return;
      h->receiver->on_packet(std::move(pkt));
    }
  };
  std::unique_ptr<DroppingSink> dropper;

  Harness(std::size_t stream_bytes, bool selective,
          SimTime gap_delay = 10 * kMillisecond) {
    ReceiverConfig rc;
    rc.connection_id = 7;
    rc.element_size = 4;
    rc.app_buffer_bytes = stream_bytes;
    rc.gap_nak_delay = selective ? gap_delay : 0;
    rc.send_control = [this](Chunk ctrl) {
      SimPacket sp;
      sp.bytes = encode_packet(std::vector<Chunk>{std::move(ctrl)}, 1500);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      reverse->send(std::move(sp));
    };
    receiver = std::make_unique<ChunkTransportReceiver>(sim, std::move(rc));
    dropper = std::make_unique<DroppingSink>(this);

    LinkConfig fwd_cfg;
    fwd_cfg.mtu = 1500;
    forward = std::make_unique<Link>(sim, fwd_cfg, *dropper, rng);

    SenderConfig sc;
    sc.framer.connection_id = 7;
    sc.framer.element_size = 4;
    sc.framer.tpdu_elements = 1024;
    sc.framer.xpdu_elements = 256;
    sc.framer.max_chunk_elements = 64;
    sc.mtu = 1500;
    sc.retransmit_timeout = 200 * kMillisecond;  // slow backstop
    sc.selective_retransmit = selective;
    sc.send_packet = [this](std::vector<std::uint8_t> bytes) {
      SimPacket sp;
      sp.bytes = std::move(bytes);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      forward->send(std::move(sp));
    };
    sender = std::make_unique<ChunkTransportSender>(sim, std::move(sc));
    LinkConfig rev;
    reverse = std::make_unique<Link>(sim, rev, *sender, rng);
  }
};

TEST(SelectiveRetx, RecoversSingleLostPacket) {
  const auto stream = pattern(16 * 1024);
  Harness h(stream.size(), /*selective=*/true);
  h.drop_nth = [](std::uint64_t i) { return i == 2; };  // lose one packet
  h.sender->send_stream(stream);
  h.sim.run(5 * kSecond);

  EXPECT_TRUE(h.receiver->stream_complete(stream.size() / 4));
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
  EXPECT_GT(h.sender->stats().gap_naks_honoured, 0u);
  // Selective: resent elements far fewer than a whole 1024-element TPDU.
  EXPECT_GT(h.sender->stats().selective_retx_elements, 0u);
  EXPECT_LT(h.sender->stats().selective_retx_elements, 1024u);
  // The slow whole-TPDU backstop never had to fire.
  EXPECT_EQ(h.sender->stats().retransmissions, 0u);
}

TEST(SelectiveRetx, RecoversLostTailIncludingStopBit) {
  const auto stream = pattern(16 * 1024);
  Harness h(stream.size(), /*selective=*/true);
  // Drop the LAST data packet of the first TPDU: the receiver never
  // sees T.ST and must use the need_tail path.
  h.drop_nth = [](std::uint64_t i) { return i == 3; };
  h.sender->send_stream(stream);
  h.sim.run(5 * kSecond);
  EXPECT_TRUE(h.receiver->stream_complete(stream.size() / 4));
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
}

TEST(SelectiveRetx, RecoversLostEdChunk) {
  const auto stream = pattern(8 * 1024);
  Harness h(stream.size(), /*selective=*/true);
  // The ED chunk rides in the final packet of the TPDU (packet 2 for
  // 2048 elements at 64/chunk and 1500 MTU): drop exactly it, then the
  // need_ed_chunk path must re-fetch it.
  h.drop_nth = [](std::uint64_t i) { return i == 5; };
  h.sender->send_stream(stream);
  h.sim.run(5 * kSecond);
  EXPECT_TRUE(h.receiver->stream_complete(stream.size() / 4));
  EXPECT_EQ(h.receiver->stats().tpdus_accepted, 2u);
}

TEST(SelectiveRetx, ResentPiecesPassDuplicateRejection) {
  // The sliced retransmissions must land exactly in the holes: no
  // overlap rejections, no duplicate absorption, EDC still verifies.
  const auto stream = pattern(32 * 1024);
  Harness h(stream.size(), /*selective=*/true);
  h.drop_nth = [](std::uint64_t i) { return i % 5 == 1; };  // drop 20%... once
  bool first_pass_done = false;
  // Only drop during the first transmission wave; let NAK repairs through.
  h.drop_nth = [&first_pass_done](std::uint64_t i) {
    if (first_pass_done) return false;
    if (i >= 20) first_pass_done = true;
    return i % 5 == 1;
  };
  h.sender->send_stream(stream);
  h.sim.run(10 * kSecond);

  EXPECT_TRUE(h.receiver->stream_complete(stream.size() / 4));
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
  EXPECT_EQ(h.receiver->stats().overlap_chunks, 0u);
  EXPECT_EQ(h.receiver->stats().tpdus_rejected, 0u);
}

TEST(SelectiveRetx, FarLessDataResentThanWholeTpduMode) {
  const auto stream = pattern(64 * 1024);
  auto drop = [](std::uint64_t i) { return i % 10 == 4; };  // 10% first-wave

  std::uint64_t selective_bytes = 0;
  std::uint64_t whole_bytes = 0;
  for (const bool selective : {true, false}) {
    Harness h(stream.size(), selective);
    std::uint64_t first_wave = 0;
    h.drop_nth = [&](std::uint64_t i) {
      // count only the initial wave; repairs get through
      if (i < 50) {
        ++first_wave;
        return drop(i);
      }
      return false;
    };
    h.sender->send_stream(stream);
    h.sim.run(20 * kSecond);
    EXPECT_TRUE(h.receiver->stream_complete(stream.size() / 4));
    if (selective) {
      selective_bytes = h.sender->stats().retx_payload_bytes;
    } else {
      whole_bytes = h.sender->stats().retx_payload_bytes;
    }
  }
  EXPECT_GT(whole_bytes, 0u);
  EXPECT_GT(selective_bytes, 0u);
  EXPECT_LT(selective_bytes * 2, whole_bytes);
}

// Regression: honoured gap NAKs must consume the retry budget. A
// receiver thrashing under memory pressure recreates its TPDU context
// (and with it a fresh NAK allowance) every time eviction erases it, so
// without a sender-side bound the NAK → slice → evict loop never
// terminates (chaos seed 356 livelocked exactly this way). After the
// budget the sender gives up truthfully, like the whole-TPDU path.
TEST(SelectiveRetx, HonouredNaksConsumeRetryBudget) {
  Simulator sim;
  std::vector<std::vector<std::uint8_t>> sent;
  SenderConfig sc;
  sc.framer.connection_id = 7;
  sc.framer.element_size = 4;
  sc.framer.tpdu_elements = 256;
  sc.framer.xpdu_elements = 64;
  sc.framer.max_chunk_elements = 64;
  sc.mtu = 1500;
  sc.retransmit_timeout = 200 * kMillisecond;
  sc.max_retransmits = 3;
  sc.selective_retransmit = true;
  sc.send_packet = [&sent](std::vector<std::uint8_t> b) {
    sent.push_back(std::move(b));
  };
  ChunkTransportSender sender(sim, std::move(sc));
  sender.send_stream(pattern(1024));  // one TPDU
  ASSERT_FALSE(sent.empty());

  ParsedPacket first = decode_packet(sent[0]);
  ASSERT_TRUE(first.ok);
  std::uint32_t tid = 0;
  bool found = false;
  for (const Chunk& c : first.chunks) {
    if (c.h.type == ChunkType::kData) {
      tid = c.h.tpdu.id;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  GapNak nak;
  nak.connection_id = 7;
  nak.tpdu_id = tid;
  nak.gaps.push_back({0, 8});
  int fed = 0;
  while (!sender.finished() && fed < 50) {
    SimPacket sp;
    sp.bytes =
        encode_packet(std::vector<Chunk>{make_signal_chunk(nak)}, 1500);
    sp.id = sim.next_packet_id();
    sp.created_at = sim.now();
    sender.on_packet(std::move(sp));
    ++fed;
  }
  EXPECT_TRUE(sender.finished());
  EXPECT_EQ(sender.stats().gave_up, 1u);
  EXPECT_LE(sender.stats().gap_naks_honoured,
            3u);  // bounded by max_retransmits
  EXPECT_LT(fed, 50);
}

TEST(SelectiveRetx, DisabledReceiverSendsNoNaks) {
  const auto stream = pattern(8 * 1024);
  Harness h(stream.size(), /*selective=*/false);
  h.drop_nth = [](std::uint64_t i) { return i == 1; };
  h.sender->send_stream(stream);
  h.sim.run(5 * kSecond);
  EXPECT_TRUE(h.receiver->stream_complete(stream.size() / 4));
  EXPECT_EQ(h.sender->stats().gap_naks_honoured, 0u);
  EXPECT_GT(h.sender->stats().retransmissions, 0u);  // backstop did it
}

TEST(SelectiveRetx, RecreatedTpduNaksOnlyOnItsOwnDeadline) {
  // A TPDU is rejected (ED code mismatch) and erased while its gap-NAK
  // deadline is pending; its retransmission recreates the context. Only
  // the new context's deadline may NAK it: D after its first chunk,
  // then every D. The erased context's deadline must not start a
  // second chain.
  constexpr SimTime kDelay = 10 * kMillisecond;
  constexpr SimTime kRecreatedAt = 3 * kMillisecond;
  Simulator sim;
  std::vector<SimTime> naks;
  std::vector<TpduVerdict> verdicts;
  ReceiverConfig rc;
  rc.connection_id = 7;
  rc.element_size = 4;
  rc.app_buffer_bytes = 1024;
  rc.mode = DeliveryMode::kReassemble;
  rc.gap_nak_delay = kDelay;
  rc.send_control = [&](Chunk c) {
    if (c.h.type == ChunkType::kSignal && parse_gap_nak(c)) {
      naks.push_back(sim.now());
    }
  };
  rc.on_tpdu = [&](const TpduOutcome& o) { verdicts.push_back(o.verdict); };
  ChunkTransportReceiver receiver(sim, std::move(rc));

  // One TPDU's chunks, each sent alone.
  std::vector<PacketBytes> wire;
  SenderConfig sc;
  sc.framer.connection_id = 7;
  sc.framer.element_size = 4;
  sc.framer.tpdu_elements = 256;
  sc.framer.max_chunk_elements = 64;
  sc.mtu = 300;
  sc.send_packet = [&wire](PacketBytes b) { wire.push_back(std::move(b)); };
  ChunkTransportSender sender(sim, std::move(sc));
  sender.send_stream(pattern(1024));
  ASSERT_GE(wire.size(), 2u);
  auto deliver = [&](PacketBytes bytes) {
    receiver.on_packet(SimPacket{.bytes = std::move(bytes)});
  };

  // t=0: the whole TPDU with one payload byte flipped, so it completes
  // and fails WSC-2 while its first chunk's deadline is pending.
  ParsedPacket first = decode_packet(wire.front());
  ASSERT_TRUE(first.ok);
  first.chunks.front().payload[0] ^= 0x01;
  deliver(encode_packet(first.chunks, 1500));
  for (std::size_t i = 1; i < wire.size(); ++i) deliver(wire[i]);
  ASSERT_EQ(verdicts, std::vector<TpduVerdict>{TpduVerdict::kCodeMismatch});
  // The retransmission's first packet recreates the context; the rest
  // never come, so the new context keeps NAKing until its budget ends.
  sim.arm_at(kRecreatedAt, [&] { deliver(wire.front()); });
  sim.run(kSecond);

  ASSERT_FALSE(naks.empty());
  for (std::size_t i = 0; i < naks.size(); ++i) {
    EXPECT_EQ(naks[i], kRecreatedAt + (i + 1) * kDelay) << "NAK " << i;
  }
}

}  // namespace
}  // namespace chunknet
