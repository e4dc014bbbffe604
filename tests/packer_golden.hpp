// Shared by test_packer_golden and test_gather: the recorded wire bytes
// of the packer and of the sender's first transmission, kept in
// tests/packer_golden.txt (see test_packer_golden.cpp for how the file
// was recorded and how to regenerate it).
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "src/chunk/compress.hpp"
#include "src/common/runtime.hpp"
#include "src/transport/sender.hpp"

#ifndef CHUNKNET_SOURCE_DIR
#error "CHUNKNET_SOURCE_DIR must point at the repository root"
#endif

namespace chunknet::golden {

/// FNV-1a (64-bit) over a sequence of packets. Each packet's length is
/// folded in before its bytes, so moving a byte across a packet
/// boundary changes the hash.
class WireHash {
 public:
  void add(std::span<const std::uint8_t> packet) {
    const std::uint32_t n = static_cast<std::uint32_t>(packet.size());
    for (int i = 0; i < 4; ++i) mix(static_cast<std::uint8_t>(n >> (8 * i)));
    for (const std::uint8_t b : packet) mix(b);
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  std::uint64_t h_{0xCBF29CE484222325ULL};
};

/// One recorded line: the sender's first transmission of a 24 KiB
/// stream at MTU 300 (48-element chunks, so split_to_fill cuts chunks
/// to fill packets), canonical or under the default compression profile.
inline std::string sender_first_transmission(bool compress) {
  std::vector<std::uint8_t> stream(24 * 1024);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  Simulator sim;
  WireHash hash;
  std::size_t packets = 0;
  std::uint64_t bytes = 0;
  SenderConfig sc;
  sc.framer.connection_id = 7;
  sc.framer.element_size = 4;
  sc.framer.tpdu_elements = 512;
  sc.framer.xpdu_elements = 128;
  sc.framer.max_chunk_elements = 48;
  sc.mtu = 300;
  if (compress) {
    sc.compress_wire = CompressionProfile{};
    sc.framer.implicit_ids = true;  // compact syntax needs Figure-7 IDs
  }
  sc.send_packet = [&](PacketBytes b) {
    hash.add(std::span<const std::uint8_t>(b.data(), b.size()));
    ++packets;
    bytes += b.size();
  };
  ChunkTransportSender sender(sim, std::move(sc));
  sender.send_stream(stream);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "sender mtu=300 compress=%d packets=%zu bytes=%llu fnv=%016llx",
                compress ? 1 : 0, packets,
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(hash.value()));
  return buf;
}

/// Every line of tests/packer_golden.txt; empty if the file is missing.
inline std::vector<std::string> recorded_lines() {
  std::ifstream in(std::string(CHUNKNET_SOURCE_DIR) +
                   "/tests/packer_golden.txt");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The recorded line that starts with `key` followed by a space, or ""
/// if there is none.
inline std::string recorded_line(const std::string& key) {
  for (const std::string& line : recorded_lines()) {
    if (line.compare(0, key.size() + 1, key + " ") == 0) return line;
  }
  return {};
}

}  // namespace chunknet::golden
