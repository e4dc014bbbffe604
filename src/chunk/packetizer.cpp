#include "src/chunk/packetizer.hpp"

#include "src/chunk/codec.hpp"
#include "src/chunk/fragment.hpp"
#include "src/chunk/reassemble.hpp"

namespace chunknet {

std::uint64_t pack_views(
    std::span<const ChunkView> chunks, const PacketizerOptions& opts,
    const std::function<void(std::span<const ChunkView>)>& emit) {
  std::uint64_t splits = 0;
  // Work queue as a stack: its back is the next chunk to place, so the
  // pieces of a split go back on top with one push each.
  std::vector<ChunkView> queue(chunks.rbegin(), chunks.rend());
  std::vector<ChunkView> current;
  std::size_t used = kPacketHeaderBytes;

  auto flush = [&] {
    if (current.empty()) return;
    emit(current);
    current.clear();
    used = kPacketHeaderBytes;
  };

  while (!queue.empty()) {
    ChunkView v = queue.back();
    queue.pop_back();

    const std::size_t room = opts.mtu - used;
    if (v.wire_size() <= room) {
      used += v.wire_size();
      current.push_back(v);
      if (opts.policy == RepackPolicy::kOnePerPacket) flush();
      continue;
    }

    // Chunk does not fit in the space left. Either split it to fill the
    // residual space (chunk fragmentation, Appendix C), or close this
    // packet and start a fresh one.
    if (opts.split_to_fill && opts.policy != RepackPolicy::kOnePerPacket &&
        v.h.len > 1) {
      const std::uint16_t fit = elements_that_fit(v, room);
      if (fit > 0 && fit < v.h.len) {
        auto [head, tail] = split_view(v, fit);
        ++splits;
        used += head.wire_size();
        current.push_back(head);
        flush();
        queue.push_back(tail);
        continue;
      }
    }

    flush();
    // The packet is now empty; a chunk that still exceeds the MTU must
    // be fragmented unconditionally (Figure 3).
    if (v.wire_size() > opts.mtu - kPacketHeaderBytes) {
      auto pieces = split_view_to_fit(v, opts.mtu - kPacketHeaderBytes);
      if (pieces.empty()) continue;  // undeliverable, drop
      splits += pieces.size() - 1;
      for (auto it = pieces.rbegin(); it != pieces.rend(); ++it) {
        queue.push_back(*it);
      }
      continue;
    }
    used += v.wire_size();
    current.push_back(v);
    if (opts.policy == RepackPolicy::kOnePerPacket) flush();
  }
  flush();
  return splits;
}

PacketizeResult packetize(std::vector<Chunk> chunks,
                          const PacketizerOptions& opts) {
  PacketizeResult result;
  if (opts.policy == RepackPolicy::kReassemble) {
    const std::size_t before = chunks.size();
    chunks = coalesce(std::move(chunks));
    result.merges = before - chunks.size();
  }

  std::vector<ChunkView> views;
  views.reserve(chunks.size());
  for (const Chunk& c : chunks) views.push_back(as_view(c));
  // The one payload copy: each packet's views encode into its vector.
  std::uint64_t wire = 0;
  result.splits =
      pack_views(views, opts, [&](std::span<const ChunkView> packet) {
        auto& bytes = result.packets.emplace_back();
        encode_packet_into(packet, opts.mtu, bytes);
        wire += bytes.size();
        for (const ChunkView& v : packet) {
          result.payload_bytes += v.payload.size();
        }
      });
  // Overhead = everything on the wire that is not application payload
  // (packet envelopes, chunk headers, terminators).
  result.header_bytes = wire - result.payload_bytes;
  return result;
}

std::vector<Chunk> unpack_all(
    std::span<const std::vector<std::uint8_t>> packets,
    std::size_t* malformed) {
  std::vector<Chunk> out;
  std::size_t bad = 0;
  for (const auto& p : packets) {
    ParsedPacket parsed = decode_packet(p);
    if (!parsed.ok) {
      ++bad;
      continue;
    }
    for (auto& c : parsed.chunks) out.push_back(std::move(c));
  }
  if (malformed != nullptr) *malformed = bad;
  return out;
}

}  // namespace chunknet
