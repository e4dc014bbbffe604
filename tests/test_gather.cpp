// Tests for the sender's transmit step (pack_views, then each packet's
// views encoded straight into its wire buffer): byte-for-byte parity
// with an independent ByteWriter envelope and with packetize (including
// fragmented chunks and wraparound SNs), view splitting, and the
// sender-level accounting — retransmission of an unacked TPDU copies
// each payload byte once, into the wire buffer (sender.tx_bytes_copied
// stays flat on a lossy link); only compress_wire copies more.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/chunk/codec.hpp"
#include "src/chunk/compress.hpp"
#include "src/chunk/fragment.hpp"
#include "src/chunk/packetizer.hpp"
#include "src/common/bytes.hpp"
#include "src/common/rng.hpp"
#include "src/netsim/link.hpp"
#include "src/netsim/router.hpp"
#include "src/netsim/simulator.hpp"
#include "src/transport/receiver.hpp"
#include "src/transport/sender.hpp"
#include "tests/packer_golden.hpp"

namespace chunknet {
namespace {

Chunk make_data_chunk(Rng& rng, std::uint32_t tpdu_id, std::uint32_t sn,
                      std::uint16_t size, std::uint16_t len,
                      bool stop = false) {
  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = size;
  c.h.len = len;
  c.h.conn = {1, sn, stop};
  c.h.tpdu = {tpdu_id, sn, stop};
  c.h.xpdu = {9, sn, stop};
  c.payload.resize(static_cast<std::size_t>(size) * len);
  for (auto& b : c.payload) b = static_cast<std::uint8_t>(rng.next());
  return c;
}

std::vector<ChunkView> views_of(const std::vector<Chunk>& chunks) {
  std::vector<ChunkView> v;
  v.reserve(chunks.size());
  for (const Chunk& c : chunks) v.push_back(as_view(c));
  return v;
}

// Independent reference for the canonical envelope: magic, version,
// big-endian body length, every chunk through the ByteWriter
// encode_chunk, then the terminator when space remains.
std::vector<std::uint8_t> reference_packet(const std::vector<Chunk>& chunks,
                                           std::size_t capacity) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  for (const Chunk& c : chunks) encode_chunk(w, c);
  const std::size_t used = kPacketHeaderBytes + body.size();
  if (used > capacity) return {};
  if (used < capacity) w.u8(static_cast<std::uint8_t>(ChunkType::kTerminator));
  std::vector<std::uint8_t> out{kPacketMagic, kPacketVersion};
  ByteWriter(out).u16(static_cast<std::uint16_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// The sender's transmit step, outside the sender: pack_views, then
/// each packet's views encoded straight into its wire buffer.
struct Encoded {
  std::vector<PacketBytes> packets;
  std::uint64_t wire_bytes{0};
  std::uint64_t payload_bytes{0};
  std::uint64_t splits{0};
};

Encoded pack_and_encode(const std::vector<Chunk>& chunks,
                        const PacketizerOptions& opts) {
  Encoded e;
  const std::vector<ChunkView> views = views_of(chunks);
  e.splits = pack_views(views, opts, [&](std::span<const ChunkView> packet) {
    PacketBytes& bytes = e.packets.emplace_back();
    EXPECT_TRUE(encode_packet_into(packet, opts.mtu, bytes));
    e.wire_bytes += bytes.size();
    for (const ChunkView& v : packet) e.payload_bytes += v.payload.size();
  });
  return e;
}

TEST(Gather, EncodePacketMatchesMaterializingEncoder) {
  Rng rng(1);
  std::vector<Chunk> chunks;
  chunks.push_back(make_data_chunk(rng, 5, 0, 4, 16));
  chunks.push_back(make_data_chunk(rng, 5, 16, 4, 3, true));
  chunks.push_back(make_data_chunk(rng, 5, 100, 1, 7));

  std::size_t body = kPacketHeaderBytes;
  for (const Chunk& c : chunks) body += kChunkHeaderBytes + c.payload.size();
  const std::vector<ChunkView> views = views_of(chunks);
  // Terminator present (body < capacity), absent (==), and overflow.
  for (const std::size_t capacity : {body + 100, body + 1, body, body - 1}) {
    const auto want = reference_packet(chunks, capacity);
    ASSERT_EQ(want.empty(), capacity < body);
    PacketBytes aligned;
    EXPECT_EQ(encode_packet_into(views, capacity, aligned), !want.empty());
    EXPECT_EQ(aligned, want) << "capacity " << capacity;
    std::vector<std::uint8_t> flat;
    EXPECT_EQ(encode_packet_into(views, capacity, flat), !want.empty());
    EXPECT_EQ(flat, want) << "capacity " << capacity;
    EXPECT_EQ(encode_packet(chunks, capacity), want) << "capacity " << capacity;
  }
}

TEST(Gather, SplitViewMatchesSplitChunk) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint16_t len = static_cast<std::uint16_t>(2 + rng.below(60));
    const std::uint16_t size = static_cast<std::uint16_t>(1 + rng.below(9));
    // Wraparound SNs: splits must advance SNs modulo 2^32 identically.
    const std::uint32_t sn =
        trial % 3 == 0 ? 0xFFFFFFF0u + static_cast<std::uint32_t>(trial) : trial * 7u;
    const Chunk c = make_data_chunk(rng, 3, sn, size, len, true);
    const std::uint16_t cut =
        static_cast<std::uint16_t>(1 + rng.below(static_cast<std::uint32_t>(len - 1)));

    const auto [a, b] = split_chunk(c, cut);
    const auto [va, vb] = split_view(as_view(c), cut);
    EXPECT_EQ(va.h, a.h);
    EXPECT_EQ(vb.h, b.h);
    ASSERT_EQ(va.payload.size(), a.payload.size());
    ASSERT_EQ(vb.payload.size(), b.payload.size());
    EXPECT_TRUE(std::equal(a.payload.begin(), a.payload.end(),
                           va.payload.begin()));
    EXPECT_TRUE(std::equal(b.payload.begin(), b.payload.end(),
                           vb.payload.begin()));
    // Zero-copy: the view halves point into the original payload.
    EXPECT_EQ(va.payload.data(), c.payload.data());
    EXPECT_EQ(vb.payload.data(),
              c.payload.data() + static_cast<std::size_t>(cut) * size);
  }
}

TEST(Gather, PacketizeParityAcrossPoliciesAndMtus) {
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Chunk> chunks;
    const std::size_t n = 1 + rng.below(12);
    std::uint32_t sn = trial % 4 == 0 ? 0xFFFFFFE0u : rng.u32() & 0xFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint16_t size = static_cast<std::uint16_t>(1 + rng.below(8));
      // Oversized chunks exercise unconditional fragmentation; len==1
      // blocks split_to_fill; undeliverable sizes exercise the drop.
      const std::uint16_t len = static_cast<std::uint16_t>(1 + rng.below(90));
      chunks.push_back(make_data_chunk(rng, 11, sn, size, len, i + 1 == n));
      sn += len;
    }
    for (const RepackPolicy policy :
         {RepackPolicy::kOnePerPacket, RepackPolicy::kRepack}) {
      for (const std::size_t mtu : {48u, 96u, 256u, 1500u}) {
        PacketizerOptions opts;
        opts.mtu = mtu;
        opts.policy = policy;
        const PacketizeResult flat = packetize(chunks, opts);
        const Encoded sent = pack_and_encode(chunks, opts);

        ASSERT_EQ(sent.packets.size(), flat.packets.size())
            << "policy=" << static_cast<int>(policy) << " mtu=" << mtu;
        EXPECT_EQ(sent.wire_bytes - sent.payload_bytes, flat.header_bytes);
        EXPECT_EQ(sent.payload_bytes, flat.payload_bytes);
        EXPECT_EQ(sent.splits, flat.splits);
        for (std::size_t i = 0; i < flat.packets.size(); ++i) {
          EXPECT_EQ(sent.packets[i], flat.packets[i])
              << "policy=" << static_cast<int>(policy) << " mtu=" << mtu
              << " packet " << i;
        }
      }
    }
  }
}

TEST(Gather, LinearizedPacketsDecode) {
  Rng rng(4);
  std::vector<Chunk> chunks;
  for (int i = 0; i < 6; ++i) {
    chunks.push_back(make_data_chunk(rng, 2, i * 40, 4, 40, i == 5));
  }
  PacketizerOptions opts;
  opts.mtu = 256;
  const Encoded sent = pack_and_encode(chunks, opts);
  std::vector<Chunk> round_trip;
  for (const PacketBytes& pkt : sent.packets) {
    ParsedPacket parsed = decode_packet(pkt.span());
    ASSERT_TRUE(parsed.ok);
    for (auto& c : parsed.chunks) round_trip.push_back(std::move(c));
  }
  // Every payload byte survives, in element order.
  std::vector<std::uint8_t> want;
  for (const Chunk& c : chunks) {
    want.insert(want.end(), c.payload.begin(), c.payload.end());
  }
  std::vector<std::uint8_t> got;
  for (const Chunk& c : round_trip) {
    got.insert(got.end(), c.payload.begin(), c.payload.end());
  }
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Sender-level: the zero-copy guarantee.

struct TxHarness {
  Simulator sim;
  Rng rng{1993};
  std::unique_ptr<ChunkTransportReceiver> receiver;
  std::unique_ptr<ChunkTransportSender> sender;
  std::unique_ptr<Link> forward;
  std::unique_ptr<Link> reverse;
  /// Deterministic forward loss by packet index (seed-independent).
  std::function<bool(std::uint64_t)> drop_nth;
  std::uint64_t fwd_count{0};
  /// Optional relay between the forward link and the receiver; it
  /// re-envelopes each packet for `relay_mtu`.
  RelayFn relay;
  std::size_t relay_mtu{0};

  struct DroppingSink final : public PacketSink {
    TxHarness* h;
    explicit DroppingSink(TxHarness* harness) : h(harness) {}
    void on_packet(SimPacket pkt) override {
      const std::uint64_t idx = h->fwd_count++;
      if (h->drop_nth && h->drop_nth(idx)) return;
      if (!h->relay) {
        h->receiver->on_packet(std::move(pkt));
        return;
      }
      for (PacketBytes& body : h->relay(std::move(pkt.bytes), h->relay_mtu)) {
        SimPacket out;
        out.bytes = std::move(body);
        h->receiver->on_packet(std::move(out));
      }
    }
  };
  std::unique_ptr<DroppingSink> dropper;

  TxHarness(LinkConfig fwd_cfg, std::size_t stream_bytes,
            bool selective = false,
            std::optional<CompressionProfile> compress = std::nullopt) {
    ReceiverConfig rc;
    rc.connection_id = 7;
    rc.element_size = 4;
    rc.mode = DeliveryMode::kImmediate;
    rc.app_buffer_bytes = stream_bytes;
    rc.gap_nak_delay = selective ? 10 * kMillisecond : 0;
    rc.compression = compress;
    rc.send_control = [this](Chunk ack) {
      auto pkt = encode_packet(std::vector<Chunk>{std::move(ack)}, 1500);
      SimPacket sp;
      sp.bytes = std::move(pkt);
      sp.id = sim.next_packet_id();
      sp.created_at = sim.now();
      reverse->send(std::move(sp));
    };
    receiver = std::make_unique<ChunkTransportReceiver>(sim, std::move(rc));
    dropper = std::make_unique<DroppingSink>(this);
    forward = std::make_unique<Link>(sim, fwd_cfg, *dropper, rng);

    SenderConfig sc;
    sc.framer.connection_id = 7;
    sc.framer.element_size = 4;
    sc.framer.tpdu_elements = 512;
    sc.framer.xpdu_elements = 128;
    sc.framer.max_chunk_elements = 64;
    sc.mtu = fwd_cfg.mtu;
    if (compress) {
      sc.compress_wire = compress;
      sc.framer.implicit_ids = true;  // compact syntax needs Figure-7 IDs
    }
    sc.selective_retransmit = selective;
    sc.retransmit_timeout = selective ? 200 * kMillisecond : 20 * kMillisecond;
    sc.send_packet = [this](PacketBytes bytes) {
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
};

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  return v;
}

TEST(GatherTx, RetransmissionCopiesZeroPayloadBytes) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  cfg.loss_rate = 0.15;  // forces whole-TPDU retransmissions
  const auto stream = pattern(32 * 1024);
  TxHarness h(cfg, stream.size());
  h.sender->send_stream(stream);
  h.sim.run();

  ASSERT_TRUE(h.sender->all_acked());
  EXPECT_GT(h.sender->stats().retransmissions, 0u);
  // The zero-copy proof: first transmission AND every retransmission
  // borrowed the pending chunks' bytes — the copied counter never
  // moved, while the gather counter covers the stream at least once
  // plus everything resent.
  EXPECT_EQ(h.sender->stats().tx_bytes_copied, 0u);
  EXPECT_GE(h.sender->stats().tx_gather_bytes,
            stream.size() + h.sender->stats().retx_payload_bytes);
  EXPECT_TRUE(h.receiver->stream_complete(stream.size() / 4));
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
}

TEST(GatherTx, SelectiveRetransmitStaysZeroCopy) {
  // GapNak slices cut chunks to exact gap boundaries. On the gather
  // path the cut is split_view header math over the pending store's
  // payload, so even partial-TPDU resends copy nothing.
  LinkConfig cfg;
  cfg.mtu = 1500;
  const auto stream = pattern(32 * 1024);
  TxHarness h(cfg, stream.size(), /*selective=*/true);
  // Deterministically lose a few mid-TPDU packets so gaps persist.
  h.drop_nth = [](std::uint64_t i) { return i == 2 || i == 9 || i == 16; };
  h.sender->send_stream(stream);
  h.sim.run();

  ASSERT_TRUE(h.sender->all_acked());
  EXPECT_GT(h.sender->stats().gap_naks_honoured, 0u);
  EXPECT_GT(h.sender->stats().selective_retx_elements, 0u);
  EXPECT_EQ(h.sender->stats().tx_bytes_copied, 0u);
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
}

/// The pending views alias the sender's copy of the stream, not the
/// caller's buffer: overwritten and freed on return, it must not leak
/// into the RTO resend (under ASan a stale alias is a use-after-free).
void expect_resend_reads_senders_copy(std::size_t stream_bytes) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  const auto stream = pattern(stream_bytes);
  TxHarness h(cfg, stream.size());
  h.drop_nth = [](std::uint64_t i) { return i == 0; };
  {
    auto caller = std::make_unique<std::vector<std::uint8_t>>(stream);
    h.sender->send_stream(*caller);
    std::fill(caller->begin(), caller->end(), std::uint8_t{0xA5});
  }
  h.sim.run();

  ASSERT_TRUE(h.sender->all_acked());
  EXPECT_GT(h.sender->stats().retransmissions, 0u);
  EXPECT_TRUE(h.receiver->stream_complete(stream.size() / 4));
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
}

TEST(GatherTx, ResendReadsTheSendersOwnCopyOfTheStream) {
  expect_resend_reads_senders_copy(16 * 1024);
}

TEST(GatherTx, ResendReadsTheSendersHugePageCopyOfTheStream) {
  // 4 MiB: both the sender's copy and the receiver's buffer are
  // huge-page blocks (src/common/aligned.hpp).
  expect_resend_reads_senders_copy(4 << 20);
}

TEST(GatherTx, MaterializingFallbackCountsEveryPayloadByte) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  const auto stream = pattern(16 * 1024);
  // compress_wire re-encodes every packet, payload included: the only
  // transmit step that copies payload bytes.
  TxHarness h(cfg, stream.size(), /*selective=*/false, CompressionProfile{});
  h.sender->send_stream(stream);
  h.sim.run();

  ASSERT_TRUE(h.sender->all_acked());
  // At least the whole stream (plus the ED chunks' payloads) is
  // counted as copied; nothing goes by reference.
  EXPECT_GE(h.sender->stats().tx_bytes_copied, stream.size());
  EXPECT_EQ(h.sender->stats().tx_gather_bytes, 0u);
}

TEST(GatherTx, ReassemblePolicyFallsBackToMaterializing) {
  // Figure 4's merging lives in relays: the sender transmits zero-copy,
  // and a kReassemble relay coalesces (copying) on the way.
  LinkConfig cfg;
  cfg.mtu = 1500;
  const auto stream = pattern(16 * 1024);
  TxHarness h(cfg, stream.size());
  RelayStats relayed;
  h.relay = chunk_relay(RepackPolicy::kReassemble, &relayed);
  h.relay_mtu = cfg.mtu;
  h.sender->send_stream(stream);
  h.sim.run();

  ASSERT_TRUE(h.sender->all_acked());
  EXPECT_GT(relayed.merges, 0u);
  EXPECT_EQ(h.sender->stats().tx_bytes_copied, 0u);
  EXPECT_TRUE(h.receiver->stream_complete(stream.size() / 4));
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
}

TEST(GatherTx, CompressedWireFallsBackToMaterializing) {
  LinkConfig cfg;
  cfg.mtu = 1500;
  const auto stream = pattern(16 * 1024);
  // Compact syntax rewrites header bytes per packet: compress_wire
  // compresses each packet's views, copying the payload — and still
  // delivers intact.
  TxHarness h(cfg, stream.size(), /*selective=*/false, CompressionProfile{});
  h.sender->send_stream(stream);
  h.sim.run();

  ASSERT_TRUE(h.sender->all_acked());
  EXPECT_GT(h.sender->stats().tx_bytes_copied, 0u);
  EXPECT_EQ(h.sender->stats().tx_gather_bytes, 0u);
  EXPECT_TRUE(std::equal(stream.begin(), stream.end(),
                         h.receiver->app_data().begin()));
}

TEST(GatherTx, GatherAndMaterializingEmitIdenticalWireBytes) {
  // The first transmission of a stream at MTU 300 (split_to_fill
  // fragmentation) must match, packet for packet, the wire bytes the
  // materializing sender emitted when both transmit paths existed
  // (recorded in tests/packer_golden.txt).
  const std::string recorded =
      golden::recorded_line("sender mtu=300 compress=0");
  ASSERT_FALSE(recorded.empty()) << "tests/packer_golden.txt";
  EXPECT_EQ(golden::sender_first_transmission(false), recorded);
}

}  // namespace
}  // namespace chunknet
