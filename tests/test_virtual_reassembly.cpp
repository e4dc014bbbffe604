// Tests for virtual reassembly (§3.3): completion detection, duplicate
// and overlap rejection, and framing-corruption verdicts.
#include "src/reassembly/virtual_reassembly.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.hpp"

namespace chunknet {
namespace {

TEST(PduTracker, CompletesInOrder) {
  PduTracker t;
  EXPECT_EQ(t.add(0, 4, false), PieceVerdict::kAccept);
  EXPECT_FALSE(t.complete());
  EXPECT_EQ(t.add(4, 4, false), PieceVerdict::kAccept);
  EXPECT_EQ(t.add(8, 2, true), PieceVerdict::kAccept);
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.elements_received(), 10u);
  ASSERT_TRUE(t.stop_element().has_value());
  EXPECT_EQ(*t.stop_element(), 9u);
}

TEST(PduTracker, CompletesOutOfOrder) {
  PduTracker t;
  EXPECT_EQ(t.add(8, 2, true), PieceVerdict::kAccept);
  EXPECT_FALSE(t.complete());
  EXPECT_EQ(t.add(0, 4, false), PieceVerdict::kAccept);
  EXPECT_EQ(t.add(4, 4, false), PieceVerdict::kAccept);
  EXPECT_TRUE(t.complete());
}

TEST(PduTracker, RejectsDuplicates) {
  PduTracker t;
  t.add(0, 4, false);
  EXPECT_EQ(t.add(0, 4, false), PieceVerdict::kDuplicate);
  EXPECT_EQ(t.add(1, 2, false), PieceVerdict::kDuplicate);
  EXPECT_EQ(t.duplicates(), 2u);
  EXPECT_EQ(t.elements_received(), 4u);
}

TEST(PduTracker, RejectsPartialOverlap) {
  PduTracker t;
  t.add(0, 4, false);
  EXPECT_EQ(t.add(2, 4, false), PieceVerdict::kOverlap);
  EXPECT_EQ(t.overlaps(), 1u);
}

// Regression: a rejected partial overlap must not leave its novel
// portion phantom-covered. A reassembling relay can merge a duplicate
// of an accepted chunk with fresh data into one chunk; the receiver
// rejects that merged piece whole, so the tracker must keep the fresh
// range open for a later retransmitted slice — otherwise complete()
// fires with elements missing and the ED code mismatches (chaos seed
// 235 found this).
TEST(PduTracker, RejectedOverlapLeavesGapOpen) {
  PduTracker t;
  EXPECT_EQ(t.add(0, 4, false), PieceVerdict::kAccept);
  // Relay-merged piece: duplicate [0,4) fused with novel [4,6), stop.
  EXPECT_EQ(t.add(0, 6, true), PieceVerdict::kOverlap);
  EXPECT_FALSE(t.complete());
  const auto runs = t.missing_runs();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first, 4u);
  EXPECT_EQ(runs[0].second, 6u);
  // A clean retransmitted slice of exactly the gap completes the PDU.
  EXPECT_EQ(t.add(4, 2, true), PieceVerdict::kAccept);
  EXPECT_TRUE(t.complete());
}

TEST(PduTracker, DataBeyondStopIsFramingError) {
  PduTracker t;
  t.add(5, 3, true);  // stop at element 7
  EXPECT_EQ(t.add(8, 2, false), PieceVerdict::kAfterStop);
}

TEST(PduTracker, ConflictingStopPositions) {
  PduTracker t;
  t.add(5, 3, true);                                  // stop at 7
  EXPECT_EQ(t.add(0, 3, true), PieceVerdict::kStopConflict);  // stop at 2?
}

TEST(PduTracker, StopBeforeSeenDataIsConflict) {
  PduTracker t;
  t.add(6, 4, false);  // elements 6..9 exist
  EXPECT_EQ(t.add(0, 3, true), PieceVerdict::kStopConflict);
}

TEST(PduTracker, ZeroLengthPieceIsNoOp) {
  PduTracker t;
  EXPECT_EQ(t.add(0, 0, false), PieceVerdict::kDuplicate);
  EXPECT_EQ(t.elements_received(), 0u);
}

TEST(PduTracker, DisorderMetricCountsPieces) {
  PduTracker t;
  t.add(0, 2, false);
  t.add(6, 2, false);
  t.add(12, 2, false);
  EXPECT_EQ(t.pieces(), 3u);
  t.add(2, 4, false);  // bridges first gap
  EXPECT_EQ(t.pieces(), 2u);
}

TEST(PduTracker, RandomPermutationAlwaysCompletes) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t pieces = static_cast<std::uint32_t>(rng.range(1, 40));
    std::vector<std::uint32_t> order(pieces);
    for (std::uint32_t i = 0; i < pieces; ++i) order[i] = i;
    for (std::uint32_t i = pieces - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    PduTracker t;
    for (const std::uint32_t i : order) {
      EXPECT_EQ(t.add(i * 3, 3, i == pieces - 1), PieceVerdict::kAccept);
    }
    EXPECT_TRUE(t.complete());
  }
}

TEST(PduTracker, VerdictOnceCompleteMatchesACompleteTracker) {
  // The receiver's tombstones judge late pieces with
  // verdict_once_complete; it must answer exactly as the complete
  // tracker would, for every piece position, length and stop bit,
  // including pieces whose last element would pass 2^32 − 1.
  for (const std::uint32_t stop : {0u, 1u, 7u, 12u}) {
    for (const std::uint32_t sn :
         {0u, 1u, 5u, 7u, 8u, 12u, 13u, 20u, 0xFFFFFFF0u, 0xFFFFFFFFu}) {
      for (const std::uint32_t len : {0u, 1u, 2u, 5u, 8u, 13u, 16u}) {
        for (const bool st : {false, true}) {
          PduTracker t;
          ASSERT_EQ(t.add(0, stop + 1, true), PieceVerdict::kAccept);
          ASSERT_TRUE(t.complete());
          EXPECT_EQ(verdict_once_complete(stop, sn, len, st),
                    t.add(sn, len, st))
              << "stop " << stop << " sn " << sn << " len " << len
              << " st " << st;
        }
      }
    }
  }
}

TEST(VirtualReassembler, TracksMultiplePdus) {
  VirtualReassembler vr;
  const PduKey a{1, 10};
  const PduKey b{1, 11};
  vr.add(a, 0, 4, false);
  vr.add(b, 0, 8, true);
  EXPECT_FALSE(vr.complete(a));
  EXPECT_TRUE(vr.complete(b));
  vr.add(a, 4, 4, true);
  EXPECT_TRUE(vr.complete(a));
  EXPECT_EQ(vr.in_flight(), 2u);
  EXPECT_TRUE(vr.erase(b));
  EXPECT_EQ(vr.in_flight(), 1u);
  EXPECT_FALSE(vr.erase(b));
}

TEST(VirtualReassembler, StatsAggregation) {
  VirtualReassembler vr;
  const PduKey k{2, 20};
  vr.add(k, 0, 4, false);
  vr.add(k, 0, 4, false);   // duplicate
  vr.add(k, 2, 4, false);   // overlap
  vr.add(k, 10, 2, true);   // accept (stop at 11)
  vr.add(k, 12, 1, false);  // after stop
  const auto& s = vr.stats();
  EXPECT_EQ(s.pieces_accepted, 2u);
  EXPECT_EQ(s.duplicates_rejected, 1u);
  EXPECT_EQ(s.overlaps_rejected, 1u);
  EXPECT_EQ(s.framing_errors, 1u);
}

TEST(VirtualReassembler, AddChunkUsesTpduTuple) {
  VirtualReassembler vr;
  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = 4;
  c.h.len = 5;
  c.h.conn = {9, 100, false};
  c.h.tpdu = {77, 0, true};
  c.payload.assign(20, 0);
  EXPECT_EQ(vr.add_chunk(c), PieceVerdict::kAccept);
  EXPECT_TRUE(vr.complete(PduKey{9, 77}));
  EXPECT_FALSE(vr.complete(PduKey{9, 78}));
}

TEST(VirtualReassembler, FindReturnsTracker) {
  VirtualReassembler vr;
  const PduKey k{3, 30};
  EXPECT_EQ(vr.find(k), nullptr);
  vr.add(k, 0, 1, false);
  ASSERT_NE(vr.find(k), nullptr);
  EXPECT_EQ(vr.find(k)->elements_received(), 1u);
}

}  // namespace
}  // namespace chunknet
