// Chunk fragmentation — the paper's Appendix C algorithm.
//
// Splitting a chunk produces two chunks: the head keeps the original
// SNs and carries NO stop bits; the tail's SNs are advanced by the head
// length in *every* framing tuple (C, T and X move in lock-step because
// SNs count the same data elements), and the tail inherits the original
// ST bits. TYPE, SIZE and all IDs are copied to both halves. The SIZE
// field guarantees the atomic units of protocol processing are never
// split: all cuts happen on element boundaries.
//
// Because splitting a chunk yields chunks, "the receiver always
// receives packets filled with chunks, and the format of the received
// chunks is identical regardless of how much network fragmentation
// occurs" (§3.1) — fragmentation is just re-enveloping.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/chunk/types.hpp"

namespace chunknet {

/// Splits `c` after `head_len` data elements (Appendix C): split_view,
/// then each half copied out. Preconditions: c is a structurally valid
/// data-bearing chunk and 0 < head_len < c.h.len.
std::pair<Chunk, Chunk> split_chunk(const Chunk& c, std::uint16_t head_len);

/// The Appendix-C split on a non-owning view, which every other split
/// here adapts: the payload halves are SUBSPANS of the original — no
/// payload byte moves. This is what makes splitting free on the
/// transmit packing path (pack_views): fragmentation is header math.
std::pair<ChunkView, ChunkView> split_view(const ChunkView& v,
                                           std::uint16_t head_len);

/// Largest number of elements of `c` that fit in `budget_bytes` of wire
/// space (including the chunk header). Zero if not even one element fits.
std::uint16_t elements_that_fit(const Chunk& c, std::size_t budget_bytes);
std::uint16_t elements_that_fit(const ChunkView& v, std::size_t budget_bytes);

/// Splits `c` into the minimum number of chunks such that each encodes
/// into at most `max_wire_bytes` (header + payload). Splitting respects
/// element (SIZE) boundaries. Returns {c} unchanged if it already fits.
/// Returns an empty vector if even a single element cannot fit.
std::vector<Chunk> split_to_fit(const Chunk& c, std::size_t max_wire_bytes);

/// View analogue of `split_to_fit`: every piece borrows a subspan of
/// the original payload.
std::vector<ChunkView> split_view_to_fit(const ChunkView& v,
                                         std::size_t max_wire_bytes);

/// Counts how many framing tuples a split manipulates — the paper's
/// §3.2 cost note: chunk fragmentation touches multiple framing levels
/// (vs one for IP), "however, this manipulation is quite simple and can
/// be done in parallel". Exposed so bench E1 can report it.
inline constexpr int kFramingLevels = 3;

}  // namespace chunknet
