// Golden packing: the packer's output over a seeded corpus, and the
// sender's first transmission, must match tests/packer_golden.txt.
//
// Each packer line is one (policy, MTU, split_to_fill) case over the
// same 400 seeded chunk lists: packet count, header/payload/split/merge
// totals and an FNV-1a hash of every packet's wire bytes. The corpus
// holds runs of mergeable chunks (so kReassemble coalesces), shuffled
// lists, ED chunks, SNs that wrap past 2^32, chunks larger than every
// MTU (fragmented unconditionally) and elements too large for the
// smallest MTU (dropped as undeliverable). The two sender lines pin the
// first transmission of a stream, canonical and compressed.
//
// Every run writes its fresh table to packer_golden.actual.txt in the
// test's working directory. When a change is MEANT to alter the wire
// bytes (and says so in its notes), regenerate the file with:
//
//   ctest --test-dir build -R PackerGolden
//   cp build/tests/packer_golden.actual.txt tests/packer_golden.txt
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/chunk/builder.hpp"
#include "src/chunk/packetizer.hpp"
#include "src/common/rng.hpp"
#include "tests/packer_golden.hpp"

namespace chunknet {
namespace {

constexpr int kCorpusLists = 400;

Chunk data_chunk(std::uint16_t size, std::uint16_t len, FrameTuple conn,
                 FrameTuple tpdu, FrameTuple xpdu, Rng& rng) {
  Chunk c;
  c.h.type = ChunkType::kData;
  c.h.size = size;
  c.h.len = len;
  c.h.conn = conn;
  c.h.tpdu = tpdu;
  c.h.xpdu = xpdu;
  c.payload.resize(static_cast<std::size_t>(size) * len);
  for (auto& b : c.payload) b = static_cast<std::uint8_t>(rng.next());
  return c;
}

/// One corpus entry: 1–3 runs of SN-contiguous chunks (each run one
/// TPDU with its own element size), an optional ED chunk, and — for
/// half the lists — a shuffle, since chunks are order-free.
std::vector<Chunk> corpus_list(int index) {
  Rng rng(0x9ACC0000u + static_cast<std::uint64_t>(index));
  constexpr std::uint16_t kSizes[] = {1, 2, 4, 8, 16};
  std::vector<Chunk> chunks;
  const std::size_t runs = 1 + rng.below(3);
  for (std::size_t r = 0; r < runs; ++r) {
    const std::uint16_t size = kSizes[rng.below(5)];
    const std::uint32_t tpdu_id = 100 + static_cast<std::uint32_t>(r);
    // Every fourth list starts its T.SNs just below 2^32 so runs wrap.
    std::uint32_t tsn =
        index % 4 == 0 ? 0xFFFFFFF0u - static_cast<std::uint32_t>(rng.below(64))
                       : rng.u32() & 0xFFFFFu;
    std::uint32_t csn = rng.u32();
    std::uint32_t xsn = rng.u32() & 0xFFFFu;
    const std::size_t n = 1 + rng.below(5);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint16_t len = static_cast<std::uint16_t>(1 + rng.below(120));
      const bool stop = i + 1 == n && rng.chance(0.5);
      chunks.push_back(data_chunk(size, len, {1, csn, stop},
                                  {tpdu_id, tsn, stop}, {9, xsn, stop}, rng));
      tsn += len;
      csn += len;
      xsn += len;
    }
  }
  if (rng.chance(0.3)) {
    chunks.push_back(make_ed_chunk(1, 100, 0, {rng.u32(), rng.u32()}));
  }
  if (rng.chance(0.5)) {
    for (std::size_t i = chunks.size(); i > 1; --i) {
      std::swap(chunks[i - 1], chunks[rng.below(i)]);
    }
  }
  return chunks;
}

std::string packer_line(RepackPolicy policy, std::size_t mtu, bool split,
                        const std::vector<std::vector<Chunk>>& corpus) {
  PacketizerOptions opts;
  opts.mtu = mtu;
  opts.policy = policy;
  opts.split_to_fill = split;
  golden::WireHash hash;
  std::uint64_t packets = 0, header = 0, payload = 0, splits = 0, merges = 0;
  for (const std::vector<Chunk>& chunks : corpus) {
    const PacketizeResult r = packetize(chunks, opts);
    for (const auto& p : r.packets) hash.add(p);
    packets += r.packets.size();
    header += r.header_bytes;
    payload += r.payload_bytes;
    splits += r.splits;
    merges += r.merges;
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "packer policy=%d mtu=%zu split=%d packets=%llu header=%llu "
                "payload=%llu splits=%llu merges=%llu fnv=%016llx",
                static_cast<int>(policy), mtu, split ? 1 : 0,
                static_cast<unsigned long long>(packets),
                static_cast<unsigned long long>(header),
                static_cast<unsigned long long>(payload),
                static_cast<unsigned long long>(splits),
                static_cast<unsigned long long>(merges),
                static_cast<unsigned long long>(hash.value()));
  return buf;
}

TEST(PackerGolden, PacketsMatchRecording) {
  std::vector<std::vector<Chunk>> corpus;
  for (int i = 0; i < kCorpusLists; ++i) corpus.push_back(corpus_list(i));

  std::vector<std::string> actual;
  for (const RepackPolicy policy :
       {RepackPolicy::kOnePerPacket, RepackPolicy::kRepack,
        RepackPolicy::kReassemble}) {
    for (const std::size_t mtu : {48u, 96u, 300u, 1500u}) {
      for (const bool split : {true, false}) {
        actual.push_back(packer_line(policy, mtu, split, corpus));
      }
    }
  }
  for (const bool compress : {false, true}) {
    actual.push_back(golden::sender_first_transmission(compress));
  }
  std::ofstream out("packer_golden.actual.txt");
  for (const std::string& line : actual) out << line << "\n";
  out.close();

  const std::vector<std::string> golden = golden::recorded_lines();
  ASSERT_EQ(golden.size(), actual.size()) << "tests/packer_golden.txt";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(golden[i], actual[i]) << "line " << i + 1;
  }
}

}  // namespace
}  // namespace chunknet
