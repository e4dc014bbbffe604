// Invertible chunk-header compression (paper Appendix A).
//
// "Protocols can be defined to use the simplest form of chunks and
// chunk syntax transformations can be used to increase the bandwidth
// efficiency of chunk headers without changing the basic operation of
// the protocol." This module implements the transformations the
// appendix describes, each individually switchable so bench E5 can
// attribute the savings:
//
//  - SIZE elision: the SIZE of each chunk TYPE is agreed at connection
//    setup (signalling), so no SIZE field travels per chunk;
//  - implicit T.ID / X.ID (Figure 7): when the sender assigns
//    id = C.SN − PDU.SN, the difference is constant over the PDU and
//    the explicit ID field can be dropped — the receiver re-derives it;
//  - intra-packet continuation: when consecutive chunks in one packet
//    are related, later headers shrink to a tag + LEN — every other
//    field is derived from the previous chunk (the appendix's
//    positional-information idea).
//
// Every transform is lossless: decode(encode(chunks)) reproduces the
// canonical headers exactly (tested in tests/test_compress.cpp), so
// protocol logic never needs to know which encoding was in use —
// "chunk headers can have different formats in different parts of the
// network if desired".
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/chunk/types.hpp"

namespace chunknet {

struct CompressionProfile {
  bool elide_size{true};
  bool implicit_tid{true};  ///< requires FramerOptions::implicit_ids
  bool implicit_xid{true};  ///< requires FramerOptions::implicit_ids
  bool intra_packet_continuation{true};
  /// Negotiated SIZE per chunk TYPE, used when elide_size is set
  /// (indexed by the numeric TYPE value).
  std::array<std::uint16_t, 8> size_by_type{0, 4, 8, 4, 5, 0, 0, 0};

  /// Profile with every transform disabled (headers stay full-size in
  /// the compact syntax — the baseline for bench E5).
  static CompressionProfile none() {
    CompressionProfile p;
    p.elide_size = false;
    p.implicit_tid = false;
    p.implicit_xid = false;
    p.intra_packet_continuation = false;
    return p;
  }
};

/// Compact packet magic (distinct from the canonical envelope, so a
/// receiver knows which syntax arrived — in a real deployment this is
/// part of link negotiation).
inline constexpr std::uint8_t kCompressedPacketMagic = 0xC5;

/// Encodes chunks into one compact packet. Returns an empty vector if
/// the encoded packet would exceed `capacity` (caller fragments first)
/// or a chunk is not representable under `profile`.
std::vector<std::uint8_t> compress_packet(std::span<const Chunk> chunks,
                                          const CompressionProfile& profile,
                                          std::size_t capacity);

/// Same, from views (the sender's compress_wire step): payload is read
/// straight from the borrowed spans.
std::vector<std::uint8_t> compress_packet(std::span<const ChunkView> chunks,
                                          const CompressionProfile& profile,
                                          std::size_t capacity);

struct DecompressedPacket {
  std::vector<Chunk> chunks;
  bool ok{false};
};

/// Decodes a compact packet back to canonical chunks.
DecompressedPacket decompress_packet(std::span<const std::uint8_t> bytes,
                                     const CompressionProfile& profile);

/// Wire bytes the compact encoding needs for one chunk header, given
/// whether it can be a continuation of the previous chunk. Exposed for
/// the E5 overhead accounting.
std::size_t compressed_header_size(const CompressionProfile& profile,
                                   bool continuation);

}  // namespace chunknet
