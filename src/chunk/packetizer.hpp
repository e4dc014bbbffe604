// Packing chunks into packet envelopes (paper §2, Figure 3) and the
// repacking policies of Figure 4.
//
// "If chunks are smaller than a packet, then as many chunks as fit can
// be placed in a single packet… Because chunks allow disordering, how
// the chunks are placed in a packet is irrelevant." When a chunk does
// not fit in the space left, the packetizer may split it (chunk
// fragmentation) so packets are filled efficiently — or move it whole
// to the next packet, under the chosen policy.
//
// When moving chunks from small packets to large ones (Figure 4) an
// intermediate system has three choices, all supported here:
//   1. kOnePerPacket  — one chunk per packet (no combining),
//   2. kRepack        — pack multiple chunks per packet (no merging),
//   3. kReassemble    — merge eligible chunks first, then pack.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/chunk/types.hpp"

namespace chunknet {

enum class RepackPolicy : std::uint8_t {
  kOnePerPacket = 1,  ///< Figure 4 method 1
  kRepack = 2,        ///< Figure 4 method 2
  kReassemble = 3,    ///< Figure 4 method 3
};

struct PacketizerOptions {
  std::size_t mtu{1500};            ///< max bytes per encoded packet
  bool split_to_fill{true};         ///< split chunks to fill residual space
  RepackPolicy policy{RepackPolicy::kRepack};
};

/// Encoded packets plus accounting used by benches E1/E2.
struct PacketizeResult {
  std::vector<std::vector<std::uint8_t>> packets;
  std::uint64_t header_bytes{0};   ///< chunk+packet header overhead
  std::uint64_t payload_bytes{0};  ///< application data carried
  std::uint64_t splits{0};         ///< chunk fragmentation operations
  std::uint64_t merges{0};         ///< chunk reassembly operations

  double efficiency() const {
    const double total = static_cast<double>(header_bytes + payload_bytes);
    return total > 0 ? static_cast<double>(payload_bytes) / total : 0.0;
  }
};

/// The one packing loop: fills packets of at most `opts.mtu` bytes with
/// `chunks`, splitting to fill residual space and fragmenting oversized
/// chunks (Appendix C, as split_view header math — no payload byte
/// moves), dropping chunks whose single element cannot fit. Calls
/// `emit` once per packet with its chunks in wire order; those views
/// are valid only during the call. kReassemble packs like kRepack:
/// merging is the caller's step (see packetize()). Returns the number
/// of chunk splits.
std::uint64_t pack_views(
    std::span<const ChunkView> chunks, const PacketizerOptions& opts,
    const std::function<void(std::span<const ChunkView>)>& emit);

/// Packs `chunks` into packets of at most `opts.mtu` bytes each,
/// splitting oversized chunks as needed (Appendix C), merging first if
/// the policy is kReassemble (Appendix D). An adapter over pack_views
/// that encodes each packet straight into its byte vector, so each
/// payload byte is copied once.
PacketizeResult packetize(std::vector<Chunk> chunks,
                          const PacketizerOptions& opts);

/// Convenience: parse a batch of packets back into a flat chunk list,
/// dropping malformed packets. Sets `*malformed` (if non-null) to the
/// number of packets that failed to parse.
std::vector<Chunk> unpack_all(
    std::span<const std::vector<std::uint8_t>> packets,
    std::size_t* malformed = nullptr);

}  // namespace chunknet
