// Property tests for the zero-copy packet decoder: decode_packet_views
// (and decode_packet, its owning adapter) must agree byte-for-byte with
// an independent reference — the envelope checks written in this file
// plus a decode_chunk_view loop — on the accept/reject decision, the
// headers and the payload bytes, across randomized, truncated, and
// corrupted packets; its views must always point inside the source
// span (never dangle past it).
#include "src/chunk/codec.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "src/common/bytes.hpp"
#include "src/common/rng.hpp"

namespace chunknet {
namespace {

Chunk random_chunk(Rng& rng) {
  Chunk c;
  const std::uint64_t kind = rng.below(4);
  c.h.type = kind == 0   ? ChunkType::kData
             : kind == 1 ? ChunkType::kErrorDetection
             : kind == 2 ? ChunkType::kAck
                         : ChunkType::kSignal;
  c.h.size = static_cast<std::uint16_t>(rng.range(1, 16));
  c.h.len = static_cast<std::uint16_t>(rng.range(1, 64));
  c.h.conn = {rng.u32(), rng.u32(), rng.chance(0.5)};
  c.h.tpdu = {rng.u32(), rng.u32(), rng.chance(0.5)};
  c.h.xpdu = {rng.u32(), rng.u32(), rng.chance(0.5)};
  c.payload.resize(static_cast<std::size_t>(c.h.size) * c.h.len);
  for (auto& b : c.payload) b = static_cast<std::uint8_t>(rng.next());
  return c;
}

std::vector<std::uint8_t> random_packet(Rng& rng) {
  std::vector<Chunk> chunks;
  const std::uint64_t n = rng.range(1, 8);
  for (std::uint64_t i = 0; i < n; ++i) chunks.push_back(random_chunk(rng));
  return encode_packet(chunks, 1 << 20);
}

/// Independent reference decoder: the envelope checks written out here
/// over a ByteReader, then a loop over decode_chunk_view — the
/// bounds-checked reader path, which shares no code with
/// decode_packet_views's pointer walk. nullopt = reject.
std::optional<std::vector<ChunkView>> reference_decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const std::uint8_t magic = r.u8();
  const std::uint8_t version = r.u8();
  const std::uint16_t length = r.u16();
  if (!r.ok() || magic != kPacketMagic || version != kPacketVersion ||
      length != r.remaining()) {
    return std::nullopt;
  }
  std::vector<ChunkView> out;
  for (;;) {
    ChunkView v;
    switch (decode_chunk_view(r, v)) {
      case DecodeStatus::kOk:
        out.push_back(v);
        break;
      case DecodeStatus::kTerminator:
      case DecodeStatus::kEnd:
        return out;
      case DecodeStatus::kError:
        return std::nullopt;
    }
  }
}

/// The property under test: decode_packet_views and decode_packet make
/// the reference's accept/reject decision, and when they accept,
/// produce its chunks exactly; every view stays inside `bytes`.
void expect_agreement(std::span<const std::uint8_t> bytes) {
  const auto want = reference_decode(bytes);
  const ParsedPacket owned = decode_packet(bytes);
  std::vector<ChunkView> views;
  const bool views_ok = decode_packet_views(bytes, views);

  ASSERT_EQ(views_ok, want.has_value());
  ASSERT_EQ(owned.ok, want.has_value());
  if (!views_ok) {
    EXPECT_TRUE(views.empty());
    return;
  }
  ASSERT_EQ(views.size(), want->size());
  ASSERT_EQ(owned.chunks.size(), want->size());
  const std::uint8_t* lo = bytes.data();
  const std::uint8_t* hi = bytes.data() + bytes.size();
  for (std::size_t i = 0; i < views.size(); ++i) {
    const ChunkView& ref = (*want)[i];
    EXPECT_EQ(views[i].h, ref.h);
    EXPECT_EQ(owned.chunks[i].h, ref.h);
    ASSERT_EQ(views[i].payload.size(), ref.payload.size());
    ASSERT_EQ(owned.chunks[i].payload.size(), ref.payload.size());
    EXPECT_TRUE(std::equal(ref.payload.begin(), ref.payload.end(),
                           views[i].payload.begin()));
    EXPECT_TRUE(std::equal(ref.payload.begin(), ref.payload.end(),
                           owned.chunks[i].payload.begin()));
    if (!views[i].payload.empty()) {
      EXPECT_GE(views[i].payload.data(), lo);
      EXPECT_LE(views[i].payload.data() + views[i].payload.size(), hi);
    }
  }
}

TEST(CodecViews, AgreesOnRandomValidPackets) {
  Rng rng(2026);
  for (int i = 0; i < 200; ++i) {
    const auto packet = random_packet(rng);
    ASSERT_FALSE(packet.empty());
    expect_agreement(packet);
  }
}

TEST(CodecViews, AgreesOnTruncatedPackets) {
  Rng rng(404);
  for (int i = 0; i < 100; ++i) {
    auto packet = random_packet(rng);
    // Every truncation length, including 0 and header-only prefixes.
    const std::size_t cut = rng.below(packet.size() + 1);
    packet.resize(cut);
    expect_agreement(packet);
    // The same tail with the envelope length patched to match, so the
    // chunk walk itself meets the cut mid-header or mid-payload.
    if (cut >= kPacketHeaderBytes) {
      packet[2] = static_cast<std::uint8_t>((cut - kPacketHeaderBytes) >> 8);
      packet[3] = static_cast<std::uint8_t>(cut - kPacketHeaderBytes);
      expect_agreement(packet);
    }
  }
}

TEST(CodecViews, AgreesOnCorruptedPackets) {
  Rng rng(911);
  for (int i = 0; i < 300; ++i) {
    auto packet = random_packet(rng);
    // Flip 1-4 random bytes anywhere (envelope, headers, payloads).
    const std::uint64_t flips = rng.range(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      packet[rng.below(packet.size())] ^=
          static_cast<std::uint8_t>(rng.range(1, 255));
    }
    expect_agreement(packet);
  }
}

// Random flips almost never write a TYPE of 5-7, so every TYPE byte
// value is tried outright, in the first chunk and in a later one.
TEST(CodecViews, AgreesOnEveryTypeByte) {
  Rng rng(5);
  std::vector<Chunk> chunks{random_chunk(rng), random_chunk(rng)};
  const auto packet = encode_packet(chunks, 1 << 20);
  const std::size_t second = kPacketHeaderBytes + chunks[0].wire_size();
  for (const std::size_t at : {kPacketHeaderBytes, second}) {
    for (int type = 0; type < 256; ++type) {
      auto mutated = packet;
      mutated[at] = static_cast<std::uint8_t>(type);
      expect_agreement(mutated);
    }
  }
}

// Random cuts almost never land exactly one byte short of a chunk's
// end, so each chunk's end is cut by one byte outright, with the
// envelope length patched so the chunk walk itself meets the cut.
TEST(CodecViews, AgreesOnEveryChunkEndCutByOneByte) {
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    std::vector<Chunk> chunks;
    const std::uint64_t n = rng.range(1, 6);
    for (std::uint64_t c = 0; c < n; ++c) chunks.push_back(random_chunk(rng));
    const auto packet = encode_packet(chunks, 1 << 20);
    std::size_t chunk_end = kPacketHeaderBytes;
    for (const Chunk& c : chunks) {
      chunk_end += c.wire_size();
      std::vector<std::uint8_t> cut(packet.begin(),
                                    packet.begin() + chunk_end - 1);
      const std::size_t body = cut.size() - kPacketHeaderBytes;
      cut[2] = static_cast<std::uint8_t>(body >> 8);
      cut[3] = static_cast<std::uint8_t>(body);
      ASSERT_FALSE(reference_decode(cut).has_value());
      expect_agreement(cut);
    }
  }
}

TEST(CodecViews, ScratchVectorIsClearedAndReused) {
  Rng rng(7);
  std::vector<ChunkView> views;
  const auto good = random_packet(rng);
  ASSERT_TRUE(decode_packet_views(good, views));
  ASSERT_FALSE(views.empty());
  const std::size_t cap = views.capacity();

  // A failing parse clears the scratch...
  const std::vector<std::uint8_t> junk = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(decode_packet_views(junk, views));
  EXPECT_TRUE(views.empty());
  // ...but keeps its capacity (no steady-state reallocation).
  EXPECT_GE(views.capacity(), cap);

  ASSERT_TRUE(decode_packet_views(good, views));
  expect_agreement(good);
}

TEST(CodecViews, ToChunkMaterializesIdenticalChunk) {
  Rng rng(123);
  for (int i = 0; i < 50; ++i) {
    const Chunk original = random_chunk(rng);
    const auto packet = encode_packet(std::vector<Chunk>{original}, 1 << 20);
    std::vector<ChunkView> views;
    ASSERT_TRUE(decode_packet_views(packet, views));
    ASSERT_EQ(views.size(), 1u);
    EXPECT_EQ(views[0].to_chunk(), original);
    EXPECT_EQ(as_view(original).h, views[0].h);
  }
}

TEST(CodecViews, EncodePacketIntoMatchesEncodePacket) {
  Rng rng(55);
  std::vector<std::uint8_t> buf;
  for (int i = 0; i < 50; ++i) {
    std::vector<Chunk> chunks{random_chunk(rng), random_chunk(rng)};
    const auto reference = encode_packet(chunks, 1 << 20);
    ASSERT_TRUE(encode_packet_into(chunks, 1 << 20, buf));
    EXPECT_EQ(buf, reference);
  }
  // Over-capacity fails the same way (empty output).
  std::vector<Chunk> chunks{random_chunk(rng)};
  EXPECT_TRUE(encode_packet(chunks, 8).empty());
  EXPECT_FALSE(encode_packet_into(chunks, 8, buf));
  EXPECT_TRUE(buf.empty());
}

}  // namespace
}  // namespace chunknet
