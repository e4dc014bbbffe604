// Tests for the stream framer (Figures 1–2): three simultaneous
// framings over one stream, stop-bit placement, implicit-ID assignment
// (Figure 7), and the control-chunk constructors.
#include "src/chunk/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace chunknet {
namespace {

std::vector<std::uint8_t> stream_of(std::size_t bytes) {
  std::vector<std::uint8_t> v(bytes);
  for (std::size_t i = 0; i < bytes; ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

TEST(FrameStream, EmptyStreamYieldsNoChunks) {
  FramerOptions fo;
  EXPECT_TRUE(frame_stream({}, fo).empty());
}

TEST(FrameStream, SingleChunkWhenNoBoundariesCrossed) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 100;
  fo.xpdu_elements = 100;
  const auto chunks = frame_stream(stream_of(40), fo);  // 10 elements
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].h.len, 10);
  EXPECT_EQ(chunks[0].h.conn.sn, 0u);
  EXPECT_EQ(chunks[0].h.tpdu.sn, 0u);
  EXPECT_EQ(chunks[0].h.xpdu.sn, 0u);
  // Stream end closes every framing level.
  EXPECT_TRUE(chunks[0].h.conn.st);
  EXPECT_TRUE(chunks[0].h.tpdu.st);
  EXPECT_TRUE(chunks[0].h.xpdu.st);
}

TEST(FrameStream, ChunksBreakAtEveryFramingBoundary) {
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 6;
  fo.xpdu_elements = 4;  // boundaries at 4, 8, 12… and 6, 12…
  const auto chunks = frame_stream(stream_of(12), fo);
  // Runs: [0,4) [4,6) [6,8) [8,12) — chunk breaks at 4, 6, 8, 12.
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].h.len, 4);
  EXPECT_EQ(chunks[1].h.len, 2);
  EXPECT_EQ(chunks[2].h.len, 2);
  EXPECT_EQ(chunks[3].h.len, 4);

  EXPECT_TRUE(chunks[0].h.xpdu.st);   // ends X-PDU 1
  EXPECT_FALSE(chunks[0].h.tpdu.st);
  EXPECT_TRUE(chunks[1].h.tpdu.st);   // ends TPDU 1
  EXPECT_FALSE(chunks[1].h.xpdu.st);
  EXPECT_TRUE(chunks[2].h.xpdu.st);   // ends X-PDU 2
  EXPECT_TRUE(chunks[3].h.tpdu.st);   // stream end
  EXPECT_TRUE(chunks[3].h.xpdu.st);
  EXPECT_TRUE(chunks[3].h.conn.st);
}

TEST(FrameStream, SequenceNumbersAdvanceInLockStep) {
  FramerOptions fo;
  fo.element_size = 2;
  fo.tpdu_elements = 8;
  fo.xpdu_elements = 4;
  fo.first_conn_sn = 1000;
  const auto chunks = frame_stream(stream_of(64), fo);  // 32 elements
  std::uint32_t expected_csn = 1000;
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.h.conn.sn, expected_csn);
    // C.SN − T.SN constant within a TPDU; verify per-chunk arithmetic.
    EXPECT_EQ(c.h.conn.sn - c.h.tpdu.sn,
              1000 + (expected_csn - 1000) / 8 * 8);
    expected_csn += c.h.len;
  }
}

TEST(FrameStream, TpduIdsIncrement) {
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 4;
  fo.xpdu_elements = 4;
  fo.first_tpdu_id = 10;
  const auto chunks = frame_stream(stream_of(12), fo);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].h.tpdu.id, 10u);
  EXPECT_EQ(chunks[1].h.tpdu.id, 11u);
  EXPECT_EQ(chunks[2].h.tpdu.id, 12u);
}

TEST(FrameStream, ExplicitXpduBoundariesCycle) {
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 100;
  fo.xpdu_boundaries = {3, 5};  // ALF frames of 3 then 5 elements, cycling
  const auto chunks = frame_stream(stream_of(16), fo);
  // X-PDUs: [0,3) [3,8) [8,11) [11,16)
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].h.len, 3);
  EXPECT_EQ(chunks[1].h.len, 5);
  EXPECT_EQ(chunks[2].h.len, 3);
  EXPECT_EQ(chunks[3].h.len, 5);
  for (const Chunk& c : chunks) EXPECT_TRUE(c.h.xpdu.st);
}

TEST(FrameStream, MaxChunkElementsCapsRuns) {
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 100;
  fo.xpdu_elements = 100;
  fo.max_chunk_elements = 7;
  const auto chunks = frame_stream(stream_of(20), fo);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].h.len, 7);
  EXPECT_EQ(chunks[1].h.len, 7);
  EXPECT_EQ(chunks[2].h.len, 6);
  EXPECT_FALSE(chunks[0].h.xpdu.st);  // mid-PDU chunks carry no stops
  EXPECT_TRUE(chunks[2].h.conn.st);
}

TEST(FrameStream, PayloadBytesPartitionStream) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.tpdu_elements = 5;
  fo.xpdu_elements = 3;
  const auto stream = stream_of(120);
  const auto chunks = frame_stream(stream, fo);
  std::vector<std::uint8_t> joined;
  for (const Chunk& c : chunks) {
    joined.insert(joined.end(), c.payload.begin(), c.payload.end());
  }
  EXPECT_EQ(joined, stream);
}

TEST(FrameStream, ImplicitIdAssignment) {
  // Figure 7: T.ID == C.SN − T.SN for every chunk (same for X).
  FramerOptions fo;
  fo.element_size = 1;
  fo.tpdu_elements = 6;
  fo.xpdu_elements = 4;
  fo.first_conn_sn = 35;
  fo.implicit_ids = true;
  const auto chunks = frame_stream(stream_of(24), fo);
  ASSERT_GT(chunks.size(), 2u);
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.h.tpdu.id, c.h.conn.sn - c.h.tpdu.sn);
    EXPECT_EQ(c.h.xpdu.id, c.h.conn.sn - c.h.xpdu.sn);
  }
}

TEST(FrameStream, NoConnStopWhenDisabled) {
  FramerOptions fo;
  fo.element_size = 4;
  fo.final_element_ends_connection = false;
  const auto chunks = frame_stream(stream_of(16), fo);
  EXPECT_FALSE(chunks.back().h.conn.st);
  EXPECT_TRUE(chunks.back().h.tpdu.st);
}

TEST(FrameStreamViews, EachTpduIsOneConsecutiveRunAliasingTheStream) {
  // The sender stores a TPDU as the consecutive run of views sharing its
  // T.ID, over its own copy of the stream: check both, across framings.
  FramerOptions plain;
  plain.element_size = 2;
  plain.tpdu_elements = 6;
  plain.xpdu_elements = 4;
  FramerOptions implicit = plain;
  implicit.first_conn_sn = 35;
  implicit.implicit_ids = true;
  FramerOptions boundaries = plain;
  boundaries.xpdu_boundaries = {5, 2, 9};
  boundaries.max_chunk_elements = 3;

  const auto stream = stream_of(2 * 6 * 5);  // five whole TPDUs
  for (const FramerOptions& fo : {plain, implicit, boundaries}) {
    const auto views = frame_stream_views(stream, fo);
    const auto chunks = frame_stream(stream, fo);
    ASSERT_EQ(views.size(), chunks.size());
    std::vector<std::uint32_t> run_ids;
    std::vector<std::uint32_t> run_elements;
    for (std::size_t i = 0; i < views.size(); ++i) {
      const ChunkView& v = views[i];
      if (run_ids.empty() || run_ids.back() != v.h.tpdu.id) {
        run_ids.push_back(v.h.tpdu.id);
        run_elements.push_back(0);
      }
      run_elements.back() += v.h.len;
      const std::size_t off = std::size_t{v.h.conn.sn - fo.first_conn_sn} *
                              fo.element_size;
      EXPECT_EQ(v.payload.data(), stream.data() + off);
      EXPECT_EQ(v.to_chunk(), chunks[i]);
    }
    ASSERT_EQ(run_ids.size(), 5u);
    std::sort(run_ids.begin(), run_ids.end());
    EXPECT_EQ(std::adjacent_find(run_ids.begin(), run_ids.end()),
              run_ids.end());  // no T.ID recurs in a later run
    for (const std::uint32_t n : run_elements) EXPECT_EQ(n, fo.tpdu_elements);
  }
}

TEST(EdChunk, RoundTrip) {
  const Wsc2Code code{0xAABBCCDD, 0x11223344};
  const Chunk ed = make_ed_chunk(7, 42, 1000, code);
  EXPECT_EQ(ed.h.type, ChunkType::kErrorDetection);
  EXPECT_EQ(ed.h.conn.id, 7u);
  EXPECT_EQ(ed.h.tpdu.id, 42u);
  EXPECT_EQ(ed.h.conn.sn, 1000u);
  EXPECT_TRUE(ed.structurally_valid());
  EXPECT_EQ(parse_ed_chunk(ed), code);
}

TEST(EdChunk, ParseRejectsWrongSize) {
  Chunk bogus = make_ed_chunk(1, 2, 3, {4, 5});
  bogus.payload.pop_back();
  EXPECT_EQ(parse_ed_chunk(bogus), (Wsc2Code{0, 0}));
}

TEST(AckChunk, RoundTrip) {
  const Chunk ack = make_ack_chunk(7, 42, true);
  EXPECT_EQ(ack.h.type, ChunkType::kAck);
  EXPECT_TRUE(ack.structurally_valid());
  const AckInfo info = parse_ack_chunk(ack);
  EXPECT_EQ(info.tpdu_id, 42u);
  EXPECT_TRUE(info.positive);

  const AckInfo nak = parse_ack_chunk(make_ack_chunk(7, 43, false));
  EXPECT_EQ(nak.tpdu_id, 43u);
  EXPECT_FALSE(nak.positive);
}

}  // namespace
}  // namespace chunknet
