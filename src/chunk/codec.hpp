// Canonical wire codec for chunks and the packet envelope (paper §2).
//
// "Packets can be considered envelopes that carry integral numbers of
// chunks." A packet body is a sequence of encoded chunks; if space
// remains after the last valid chunk, a terminator (TYPE = 0, the
// paper's LEN = 0 chunk) marks the end. The decoder accepts untrusted
// bytes: every structural violation yields an explicit error, never
// undefined behaviour.
//
// There is one packet encoder, encode_packet_into_impl in codec.cpp,
// instantiated for owning chunks and for views into vector or aligned
// PacketBytes storage. The sender and packetize() hand it the views
// pack_views emits, so the only payload copy on the transmit path is
// the one into the wire buffer (the NIC-DMA analogue).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/aligned.hpp"
#include "src/common/bytes.hpp"
#include "src/chunk/types.hpp"

namespace chunknet {

/// Bytes of packet-level envelope header: magic(1) version(1) length(2).
inline constexpr std::size_t kPacketHeaderBytes = 4;
inline constexpr std::uint8_t kPacketMagic = 0xC4;
inline constexpr std::uint8_t kPacketVersion = 1;

/// Serializes one chunk in canonical fixed-field form.
void encode_chunk(ByteWriter& w, const Chunk& c);

/// Outcome of decoding one chunk from a reader.
enum class DecodeStatus {
  kOk,          ///< a valid chunk was produced
  kTerminator,  ///< the TYPE=0 end-of-packet marker was read
  kEnd,         ///< reader exhausted exactly at a chunk boundary
  kError,       ///< malformed input (truncated or inconsistent)
};

DecodeStatus decode_chunk(ByteReader& r, Chunk& out);

/// Zero-copy variant: decodes the header and leaves `out.payload`
/// pointing into the reader's underlying buffer. The view is valid only
/// while that buffer lives; `decode_chunk` is this plus one copy.
DecodeStatus decode_chunk_view(ByteReader& r, ChunkView& out);

/// Encodes a full packet: envelope header + chunks + terminator (when
/// at least one byte of the declared capacity remains). `capacity` is
/// the network MTU; the encoded packet is *not* padded to it, but the
/// function checks the chunks fit and appends the terminator only if
/// the real packet would have trailing space. Returns an empty vector
/// if the chunks exceed capacity (caller should have fragmented).
std::vector<std::uint8_t> encode_packet(std::span<const Chunk> chunks,
                                        std::size_t capacity);

/// Result of parsing a packet body.
struct ParsedPacket {
  std::vector<Chunk> chunks;
  bool ok{false};
};

ParsedPacket decode_packet(std::span<const std::uint8_t> bytes);

/// Zero-copy packet parse: appends one ChunkView per chunk into `out`
/// (cleared first, capacity retained so a reused scratch vector makes
/// steady-state receive allocation-free). Payload spans point into
/// `bytes` — they are valid only while `bytes` is alive and unmodified.
/// Returns false (and clears `out`) on any structural violation, with
/// byte-for-byte the same accept/reject decisions as decode_packet
/// (property-tested).
bool decode_packet_views(std::span<const std::uint8_t> bytes,
                         std::vector<ChunkView>& out);

/// encode_packet variant that reuses `out` (cleared, capacity kept) so
/// a pooled send/receive loop allocates nothing in steady state.
/// Returns false and leaves `out` empty if the chunks exceed capacity.
bool encode_packet_into(std::span<const Chunk> chunks, std::size_t capacity,
                        std::vector<std::uint8_t>& out);

/// Same, into aligned packet storage (the TX-path flavour).
bool encode_packet_into(std::span<const Chunk> chunks, std::size_t capacity,
                        PacketBytes& out);

/// Same, from views: each payload byte is copied once, straight from
/// the borrowed span into the wire buffer. The vector flavour serves
/// packetize(); the PacketBytes flavour serves the sender and the
/// demultiplexer's control re-wrap.
bool encode_packet_into(std::span<const ChunkView> chunks,
                        std::size_t capacity, std::vector<std::uint8_t>& out);
bool encode_packet_into(std::span<const ChunkView> chunks,
                        std::size_t capacity, PacketBytes& out);

/// Raw batched header stores/loads: the 34-byte canonical chunk header
/// written/read directly at `p` (caller guarantees the bounds). These
/// are the per-chunk primitives of the batched packet encode/decode;
/// `p` need not be aligned.
void store_chunk_header(std::uint8_t* p, const ChunkHeader& h);
void load_chunk_header(const std::uint8_t* p, ChunkHeader& h);

}  // namespace chunknet
