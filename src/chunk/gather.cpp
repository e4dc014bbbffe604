#include "src/chunk/gather.hpp"

#include <cstring>

#include "src/chunk/codec.hpp"

namespace chunknet {

void GatherPacket::linearize_into(PacketBytes& out) const {
  out.resize_uninitialized(wire_size);
  std::uint8_t* p = out.data();
  for (const GatherSegment& s : segments) {
    const std::uint8_t* src =
        s.external != nullptr ? s.external : arena.data() + s.arena_off;
    std::memcpy(p, src, s.len);
    p += s.len;
  }
}

GatherPacket gather_encode_packet(std::span<const ChunkView> chunks,
                                  std::size_t capacity) {
  GatherPacket pkt;
  std::size_t body = kPacketHeaderBytes;
  for (const ChunkView& v : chunks) body += v.wire_size();
  if (body > capacity) return pkt;  // wire_size == 0 signals failure
  const bool terminator = body < capacity;
  const std::size_t total = body + (terminator ? 1 : 0);

  // Arena layout: packet envelope, then every chunk header back to
  // back, then the terminator byte. Payload never enters the arena.
  pkt.arena.resize_uninitialized(kPacketHeaderBytes +
                                 chunks.size() * kChunkHeaderBytes +
                                 (terminator ? 1 : 0));
  std::uint8_t* a = pkt.arena.data();
  a[0] = kPacketMagic;
  a[1] = kPacketVersion;
  const std::uint16_t length =
      static_cast<std::uint16_t>(total - kPacketHeaderBytes);
  a[2] = static_cast<std::uint8_t>(length >> 8);
  a[3] = static_cast<std::uint8_t>(length);

  pkt.segments.reserve(2 * chunks.size() + 2);
  pkt.segments.push_back(
      {nullptr, 0, static_cast<std::uint32_t>(kPacketHeaderBytes)});
  std::uint32_t off = kPacketHeaderBytes;
  for (const ChunkView& v : chunks) {
    store_chunk_header(a + off, v.h);
    pkt.segments.push_back(
        {nullptr, off, static_cast<std::uint32_t>(kChunkHeaderBytes)});
    off += kChunkHeaderBytes;
    if (!v.payload.empty()) {
      pkt.segments.push_back({v.payload.data(), 0,
                              static_cast<std::uint32_t>(v.payload.size())});
      pkt.borrowed_payload_bytes += v.payload.size();
    }
  }
  if (terminator) {
    a[off] = static_cast<std::uint8_t>(ChunkType::kTerminator);
    pkt.segments.push_back({nullptr, off, 1});
  }
  pkt.wire_size = total;
  return pkt;
}

GatherResult gather_packetize(std::span<const ChunkView> chunks,
                              const PacketizerOptions& opts) {
  GatherResult result;
  std::uint64_t wire = 0;
  result.splits =
      pack_views(chunks, opts, [&](std::span<const ChunkView> packet) {
        const GatherPacket& gp = result.packets.emplace_back(
            gather_encode_packet(packet, opts.mtu));
        wire += gp.wire_size;
        result.payload_bytes += gp.borrowed_payload_bytes;
      });
  // Overhead = everything on the wire that is not application payload.
  result.header_bytes = wire - result.payload_bytes;
  return result;
}

}  // namespace chunknet
