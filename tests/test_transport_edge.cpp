// Edge-case tests for the chunk transport: sender give-up, receiver
// TPDU aborts, reorder-mode retransmission interactions, and hostile
// control traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/chunk/codec.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/simulator.hpp"
#include "src/transport/invariant.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"
#include "src/transport/signalling.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return v;
}

TEST(SenderEdge, GivesUpAfterMaxRetransmits) {
  Simulator sim;
  std::uint64_t packets = 0;
  SenderConfig sc;
  sc.framer.connection_id = 1;
  sc.framer.tpdu_elements = 64;
  sc.mtu = 1500;
  sc.retransmit_timeout = 5 * kMillisecond;
  sc.max_retransmits = 3;
  sc.send_packet = [&](std::vector<std::uint8_t>) { ++packets; };  // void
  ChunkTransportSender sender(sim, std::move(sc));
  sender.send_stream(pattern(256));  // one TPDU, never acked
  sim.run(10 * kSecond);

  EXPECT_EQ(sender.stats().gave_up, 1u);
  EXPECT_TRUE(sender.finished());  // outstanding drained (by giving up)
  EXPECT_TRUE(sender.failed());
  EXPECT_FALSE(sender.all_acked());  // giving up is not delivery
  // initial + max_retransmits transmissions
  EXPECT_EQ(sender.stats().retransmissions, 3u);
}

TEST(SenderEdge, IgnoresAcksForUnknownTpdus) {
  Simulator sim;
  SenderConfig sc;
  sc.framer.connection_id = 1;
  sc.send_packet = [](std::vector<std::uint8_t>) {};
  ChunkTransportSender sender(sim, std::move(sc));
  SimPacket ack;
  ack.bytes = encode_packet(
      std::vector<Chunk>{make_ack_chunk(1, 424242, true)}, 1500);
  sender.on_packet(std::move(ack));  // must not crash or count
  EXPECT_EQ(sender.stats().tpdus_acked, 0u);
}

TEST(SenderEdge, MalformedFeedbackIgnored) {
  Simulator sim;
  SenderConfig sc;
  sc.framer.connection_id = 1;
  sc.selective_retransmit = true;
  sc.send_packet = [](std::vector<std::uint8_t>) {};
  ChunkTransportSender sender(sim, std::move(sc));
  SimPacket junk;
  junk.bytes = {0xDE, 0xAD};
  sender.on_packet(std::move(junk));

  // A syntactically valid SIGNAL chunk with garbage payload.
  Chunk bogus;
  bogus.h.type = ChunkType::kSignal;
  bogus.h.size = 3;
  bogus.h.len = 1;
  bogus.payload = {0x03, 0xFF, 0xFF};  // kGapNak kind, truncated body
  SimPacket pkt;
  pkt.bytes = encode_packet(std::vector<Chunk>{bogus}, 1500);
  sender.on_packet(std::move(pkt));
  EXPECT_EQ(sender.stats().gap_naks_honoured, 0u);
}

TEST(ReceiverEdge, AbortTpduReleasesHeldBytes) {
  Simulator sim;
  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.mode = DeliveryMode::kReassemble;
  rc.app_buffer_bytes = 1024;
  ChunkTransportReceiver rx(sim, std::move(rc));

  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 4;
  c.h.len = 8;
  c.h.conn = {1, 0, false};
  c.h.tpdu = {5, 0, false};  // incomplete TPDU
  c.payload.assign(32, 1);
  SimPacket pkt;
  pkt.bytes = encode_packet(std::vector<Chunk>{c}, 1500);
  rx.on_packet(std::move(pkt));
  EXPECT_EQ(rx.stats().held_bytes_now, 32u);

  rx.abort_tpdu(5);
  EXPECT_EQ(rx.stats().held_bytes_now, 0u);
  rx.abort_tpdu(5);  // idempotent
  rx.abort_tpdu(999);  // unknown: no-op
}

TEST(ReceiverEdge, WrongElementSizeChunksRejected) {
  Simulator sim;
  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.element_size = 4;
  rc.app_buffer_bytes = 1024;
  ChunkTransportReceiver rx(sim, std::move(rc));

  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 2;  // violates the connection's negotiated SIZE
  c.h.len = 4;
  c.h.conn = {1, 0, false};
  c.h.tpdu = {5, 0, true};
  c.payload.assign(8, 1);
  rx.on_chunk(std::move(c), 0);
  EXPECT_EQ(rx.stats().framing_error_chunks, 1u);
  EXPECT_EQ(rx.elements_delivered(), 0u);
}

TEST(ReceiverEdge, ReorderModeRetransmissionSupersedesQueuedChunk) {
  // A chunk held in the reorder queue is superseded by a retransmitted
  // copy at the same C.SN (the queued one may be the corrupted copy
  // that got its TPDU rejected).
  Simulator sim;
  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.element_size = 4;
  rc.mode = DeliveryMode::kReorder;
  rc.app_buffer_bytes = 64;
  ChunkTransportReceiver rx(sim, std::move(rc));

  auto chunk_at = [&](std::uint32_t sn, std::uint8_t fill,
                      std::uint32_t tpdu_id) {
    Chunk c;
    c.h.type = ChunkType::kData;
    c.h.size = 4;
    c.h.len = 4;
    c.h.conn = {1, sn, false};
    c.h.tpdu = {tpdu_id, sn, sn == 12};
    c.payload.assign(16, fill);
    return c;
  };

  // Out-of-order arrival: SN 8 queued (corrupt copy, fill 0xBB).
  rx.on_chunk(chunk_at(8, 0xBB, 1), 0);
  EXPECT_GT(rx.stats().held_bytes_now, 0u);
  // The TPDU is "rejected" upstream; a clean retransmission of SN 8
  // (fill 0xAA) arrives while still out of order. It must overwrite
  // the queue entry. (Fresh TPDU id models the erased-state rescan.)
  rx.on_chunk(chunk_at(8, 0xAA, 2), 0);
  // Now the in-order prefix arrives and releases everything.
  rx.on_chunk(chunk_at(0, 0x11, 3), 0);
  rx.on_chunk(chunk_at(4, 0x22, 3), 0);
  EXPECT_EQ(rx.app_data()[8 * 4], 0xAA);  // the retransmitted copy won
  EXPECT_EQ(rx.stats().held_bytes_now, 0u);
}

TEST(ReceiverEdge, GapNakStopsAfterMaxAttempts) {
  Simulator sim;
  int naks = 0;
  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.element_size = 4;
  rc.app_buffer_bytes = 1024;
  rc.gap_nak_delay = 5 * kMillisecond;
  rc.max_gap_naks = 3;
  rc.send_control = [&](Chunk c) {
    if (c.h.type == ChunkType::kSignal) ++naks;
  };
  ChunkTransportReceiver rx(sim, std::move(rc));

  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 4;
  c.h.len = 4;
  c.h.conn = {1, 0, false};
  c.h.tpdu = {5, 0, false};  // never completes
  c.payload.assign(16, 1);
  rx.on_chunk(std::move(c), 0);
  sim.run(10 * kSecond);
  EXPECT_EQ(naks, 3);
}

TEST(ReceiverEdge, ForeignConnectionChunksCounted) {
  Simulator sim;
  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.app_buffer_bytes = 64;
  ChunkTransportReceiver rx(sim, std::move(rc));
  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 4;
  c.h.len = 1;
  c.h.conn = {99, 0, false};
  c.payload.assign(4, 1);
  rx.on_chunk(std::move(c), 0);
  EXPECT_EQ(rx.stats().foreign_chunks, 1u);
}

TEST(ReceiverEdge, MisframedOverlapRejectsTpduInsteadOfWedging) {
  // A corrupted-LEN copy of a non-final chunk claims a bogus element
  // range in the tracker; the honest retransmission can then only ever
  // overlap it. The overlap is framing evidence: the TPDU must reject
  // (reassembly error) and erase its state so the sender's clean full
  // retransmission recovers. Without the framing_error flag the TPDU
  // wedges open forever — the tracker can never complete, and every
  // retransmission re-overlaps until the sender gives up.
  Simulator sim;
  std::vector<std::pair<std::uint32_t, TpduVerdict>> outcomes;
  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.element_size = 4;
  rc.mode = DeliveryMode::kReassemble;
  rc.app_buffer_bytes = 128;  // 32 elements
  rc.on_tpdu = [&](const TpduOutcome& o) {
    outcomes.emplace_back(o.tpdu_id, o.verdict);
  };
  ChunkTransportReceiver rx(sim, std::move(rc));

  const std::vector<std::uint8_t> stream = pattern(128);
  auto data = [&](std::uint32_t sn, std::uint32_t len, bool st) {
    Chunk c;
    c.h.type = ChunkType::kData;
    c.h.size = 4;
    c.h.len = len;
    c.h.conn = {1, sn, false};
    c.h.tpdu = {5, sn, st};
    c.h.xpdu = {1, sn, st};  // keep the C/X SN delta constant
    c.payload.assign(stream.begin() + sn * 4,
                     stream.begin() + (sn + len) * 4);
    return c;
  };
  const Chunk a = data(0, 16, false);
  const Chunk b = data(16, 16, true);
  TpduInvariant inv;
  inv.absorb(a);
  inv.absorb(b);
  const Chunk ed = make_ed_chunk(1, 5, 0, inv.value());

  // The relay rewrote a's LEN 16 → 9: the tracker accepts [0, 9).
  Chunk corrupt = data(0, 9, false);
  rx.on_chunk(std::move(corrupt), 0);
  rx.on_chunk(Chunk{b}, 0);
  rx.on_chunk(Chunk{ed}, 0);  // code known; [9, 16) missing: no verdict
  EXPECT_TRUE(outcomes.empty());

  // The honest copy of a overlaps the bogus range: reject, now.
  rx.on_chunk(Chunk{a}, 0);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].first, 5u);
  EXPECT_EQ(outcomes[0].second, TpduVerdict::kReassemblyError);
  EXPECT_EQ(rx.open_tpdus(), 0u);  // poisoned state erased
  EXPECT_EQ(rx.stats().held_bytes_now, 0u);

  // The full clean retransmission completes byte-exact.
  rx.on_chunk(Chunk{a}, 0);
  rx.on_chunk(Chunk{b}, 0);
  rx.on_chunk(Chunk{ed}, 0);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[1].second, TpduVerdict::kAccepted);
  EXPECT_TRUE(rx.stream_complete(32));
  EXPECT_TRUE(
      std::equal(stream.begin(), stream.end(), rx.app_data().begin()));
}

TEST(ReceiverEdge, OneChunkTpduWithCorruptConnSnFailsConsistency) {
  // Table 1 puts C.SN corruption in the consistency check's column. A
  // one-data-chunk TPDU has no second data chunk to compare
  // (C.SN − T.SN) with; its ED chunk, which carries the TPDU's starting
  // C.SN at T.SN 0, is the second witness. WSC-2 does not cover C.SN,
  // so without that check the chunk would be placed at the wrong
  // offset and ACKed.
  Simulator sim;
  std::vector<TpduVerdict> verdicts;
  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.element_size = 4;
  rc.mode = DeliveryMode::kReassemble;
  rc.app_buffer_bytes = 128;  // 32 elements
  rc.on_tpdu = [&](const TpduOutcome& o) { verdicts.push_back(o.verdict); };
  ChunkTransportReceiver rx(sim, std::move(rc));

  const std::vector<std::uint8_t> stream = pattern(32);
  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 4;
  c.h.len = 8;
  c.h.conn = {1, 0, false};
  c.h.tpdu = {5, 0, true};
  c.h.xpdu = {1, 0, true};
  c.payload = stream;
  TpduInvariant inv;
  inv.absorb(c);
  const Chunk ed = make_ed_chunk(1, 5, 0, inv.value());

  Chunk corrupt = c;
  corrupt.h.conn.sn = 16;  // T.SN and X.SN untouched
  rx.on_chunk(std::move(corrupt), 0);
  rx.on_chunk(Chunk{ed}, 0);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0], TpduVerdict::kConsistencyFailure);
  EXPECT_EQ(rx.elements_delivered(), 0u);

  // The clean retransmission is accepted at the right offset.
  rx.on_chunk(Chunk{c}, 0);
  rx.on_chunk(Chunk{ed}, 0);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[1], TpduVerdict::kAccepted);
  EXPECT_TRUE(rx.stream_complete(8));
  EXPECT_EQ(rx.elements_delivered(), 8u);
  EXPECT_TRUE(
      std::equal(stream.begin(), stream.end(), rx.app_data().begin()));
}

}  // namespace
}  // namespace chunknet
