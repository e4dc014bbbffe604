// Huge-page blocks for stream-sized buffers (src/common/aligned.hpp):
// block alignment and length, StreamBytes growth across the
// huge-page threshold, and a receiver's application buffer reading
// zero wherever nothing was placed.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/aligned.hpp"
#include "src/netsim/simulator.hpp"
#include "src/transport/receiver.hpp"

namespace chunknet {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

bool aligned_to(const void* p, std::size_t a) {
  return reinterpret_cast<std::uintptr_t>(p) % a == 0;
}

/// True when every page of [p, p + n) is mapped: mincore fails with
/// ENOMEM on any unmapped page in the range.
bool mapped(const void* p, std::size_t n) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> residency((n + page - 1) / page);
  return ::mincore(const_cast<void*>(p), n, residency.data()) == 0;
}

TEST(HugeBlock, BelowTheHugePageSizeIsAnOrdinaryHeapBlock) {
  const std::size_t n = 2 * kMiB - 1;
  EXPECT_EQ(huge_block_length(n), n);
  auto* p = static_cast<std::uint8_t*>(allocate_huge_block(n));
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(aligned_to(p, __STDCPP_DEFAULT_NEW_ALIGNMENT__));
  std::fill(p, p + n, std::uint8_t{0x5A});
  EXPECT_EQ(p[n - 1], 0x5A);
  deallocate_huge_block(p, n);
}

TEST(HugeBlock, LargeBlocksAreHugePageAlignedZeroedAndRoundedUp) {
  for (const std::size_t n : {2 * kMiB, 16 * kMiB + 4}) {
    SCOPED_TRACE(n);
    const std::size_t len = huge_block_length(n);
    EXPECT_EQ(len % kHugePageBytes, 0u);
    EXPECT_GE(len, n);
    EXPECT_LT(len - n, kHugePageBytes);
    auto* p = static_cast<std::uint8_t*>(allocate_huge_block(n));
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(aligned_to(p, kHugePageBytes));
    EXPECT_TRUE(mapped(p, len));
    EXPECT_TRUE(std::all_of(p, p + len, [](std::uint8_t b) { return b == 0; }));
    p[len - 1] = 0xA5;  // the rounded-up tail is the block's own
    deallocate_huge_block(p, n);
  }
  EXPECT_EQ(huge_block_length(2 * kMiB), 2 * kMiB);
  EXPECT_EQ(huge_block_length(16 * kMiB + 4), 18 * kMiB);
}

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 11);
  }
  return v;
}

TEST(HugeBlock, StreamBytesKeepsItsContentsAcrossTheThreshold) {
  const auto small = pattern(kMiB);
  const auto large = pattern(3 * kMiB);

  // assign: heap block → huge-page block → heap block.
  StreamBytes b;
  b.assign(small.begin(), small.end());
  EXPECT_TRUE(std::equal(small.begin(), small.end(), b.begin(), b.end()));
  b.assign(large.begin(), large.end());
  EXPECT_TRUE(aligned_to(b.data(), kHugePageBytes));
  EXPECT_TRUE(std::equal(large.begin(), large.end(), b.begin(), b.end()));
  b.assign(small.begin(), small.end());
  EXPECT_TRUE(std::equal(small.begin(), small.end(), b.begin(), b.end()));

  // resize up across the threshold keeps the prefix and zero-fills.
  StreamBytes r(small.begin(), small.end());
  r.resize(5 * kMiB);
  EXPECT_TRUE(aligned_to(r.data(), kHugePageBytes));
  EXPECT_TRUE(std::equal(small.begin(), small.end(), r.begin()));
  EXPECT_TRUE(std::all_of(r.begin() + static_cast<std::ptrdiff_t>(kMiB),
                          r.end(), [](std::uint8_t x) { return x == 0; }));
  // ...and down, then back up: the regrown tail reads zero again.
  r.resize(kMiB / 2);
  r.shrink_to_fit();
  EXPECT_TRUE(std::equal(r.begin(), r.end(), small.begin()));
  r.resize(4 * kMiB);
  EXPECT_TRUE(std::equal(small.begin(),
                         small.begin() + static_cast<std::ptrdiff_t>(kMiB / 2),
                         r.begin()));
  EXPECT_TRUE(std::all_of(r.begin() + static_cast<std::ptrdiff_t>(kMiB / 2),
                          r.end(), [](std::uint8_t x) { return x == 0; }));

  // Copies and moves keep the bytes too.
  const StreamBytes copy = r;
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), r.begin(), r.end()));
  const StreamBytes moved = std::move(r);
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), moved.begin(), moved.end()));
}

TEST(HugeBlock, ReceiverAppBufferReadsZeroBeforeAnythingIsPlaced) {
  // Dirty a freed block of the same size first: the receiver's buffer
  // must not show what an earlier owner left behind.
  {
    StreamBytes dirty(4 * kMiB, std::uint8_t{0xFF});
    ASSERT_EQ(dirty.back(), 0xFF);
  }
  Simulator sim;
  ReceiverConfig rc;
  rc.connection_id = 1;
  rc.element_size = 4;
  rc.app_buffer_bytes = 4 * kMiB;
  ChunkTransportReceiver rx(sim, std::move(rc));
  const auto app = rx.app_data();
  ASSERT_EQ(app.size(), 4 * kMiB);
  EXPECT_TRUE(aligned_to(app.data(), kHugePageBytes));
  EXPECT_TRUE(
      std::all_of(app.begin(), app.end(), [](std::uint8_t b) { return b == 0; }));
}

}  // namespace
}  // namespace chunknet
