// Gather-encode packet assembly: the zero-copy transmit path.
//
// The materializing encoder (encode_packet_into) copies every payload
// byte into a flat packet buffer on every transmission — including
// retransmissions, where the bytes already sit untouched in the
// sender's pending-TPDU store. A GatherPacket instead describes the
// packet iovec-style: a small header ARENA (packet envelope, chunk
// headers, terminator — bytes that genuinely must be produced) plus an
// ordered segment list in which payload segments BORROW the original
// chunk bytes. Assembling a packet, splitting a chunk to fill residual
// MTU space (split_view: header math + subspan), and retransmitting a
// pending TPDU all cost zero payload-byte copies.
//
// gather_packetize runs the one packing loop (pack_views in
// packetizer.hpp) and emits GatherPackets; the sender transmits those.
// packetize() runs the same loop and encodes each packet straight into
// a byte vector; relays use that.
//
// `linearize_into` flattens the segment list into one contiguous
// buffer. It models what a NIC's scatter-gather DMA engine does with
// an iovec chain, and is the handoff boundary to the byte-oriented
// network simulator — the sender does NOT count it in
// `sender.tx_bytes_copied` (see docs/PERFORMANCE.md). Its output is
// byte-for-byte identical to encode_packet on the same chunks
// (parity-tested, including fragmented and wraparound-SN chunks).
//
// Lifetime: a GatherPacket borrows the payload spans of the ChunkViews
// it was built from; it must not outlive the chunks those views were
// taken of. The sender builds, linearizes, and drops gather packets
// within one transmit call while the pending TPDU holds the chunks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/chunk/packetizer.hpp"
#include "src/chunk/types.hpp"
#include "src/common/aligned.hpp"

namespace chunknet {

/// One wire-order segment of a gather packet: either `len` bytes of
/// the packet's header arena starting at `arena_off`, or (when
/// `external` is non-null) `len` borrowed payload bytes.
struct GatherSegment {
  const std::uint8_t* external{nullptr};
  std::uint32_t arena_off{0};
  std::uint32_t len{0};
};

/// A packet described as header arena + ordered segments.
struct GatherPacket {
  PacketBytes arena;                    ///< envelope + chunk headers + terminator
  std::vector<GatherSegment> segments;  ///< wire order
  std::size_t wire_size{0};
  std::size_t borrowed_payload_bytes{0};

  /// Flattens the segments into `out` (sized exactly; 64-byte-aligned
  /// storage). The scatter-gather DMA analogue.
  void linearize_into(PacketBytes& out) const;
  PacketBytes linearize() const {
    PacketBytes out;
    linearize_into(out);
    return out;
  }
};

/// Gather analogue of encode_packet: same capacity/terminator rules,
/// but payload bytes are referenced, never copied. Returns a packet
/// with wire_size == 0 if the chunks exceed `capacity`.
GatherPacket gather_encode_packet(std::span<const ChunkView> chunks,
                                  std::size_t capacity);

/// Result of gather_packetize — mirrors PacketizeResult, with
/// GatherPackets in place of flat byte vectors.
struct GatherResult {
  std::vector<GatherPacket> packets;
  std::uint64_t header_bytes{0};
  std::uint64_t payload_bytes{0};
  std::size_t splits{0};
};

/// pack_views emitting GatherPackets: the sender's transmit packer.
/// Splits are header math and payload is borrowed, so nothing copies a
/// payload byte until the packets are linearized.
GatherResult gather_packetize(std::span<const ChunkView> chunks,
                              const PacketizerOptions& opts);

}  // namespace chunknet
