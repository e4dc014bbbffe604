// The TPDU error-detection invariant (paper §4, Figures 5 and 6).
//
// End-to-end error detection over chunks is hard because routers
// legitimately rewrite chunk headers during fragmentation (SN, LEN and
// ST fields change). The paper's solution: compute the WSC-2 code over
// an *invariant of the TPDU under chunk fragmentation* — a virtual
// 2^29-symbol code space laid out so that every quantity that must be
// protected appears at a fragmentation-independent position exactly
// once:
//
//   [0 … D-1]          TPDU payload words at position
//                      T.SN·(SIZE/4) + word-within-element
//   [D]                T.ID          (once per TPDU)
//   [D+1]              C.ID          (once per TPDU)
//   [D+2]              C.ST value    (set only on a TPDU boundary)
//   [2·t + D+3, +1]    (X.ID, X.ST) pair, where t is the symbol index
//                      of the data element whose X.ST or T.ST is set
//
// with D = max_data_symbols (16,384 in the paper → offsets 16384/16385/
// 16386/16387). The encode-exactly-once rule for X (Figure 6): encode
// at each X.ST (one per external PDU), and at T.ST for the still-open
// external PDU that begins but does not end in this TPDU.
//
// Because WSC-2 contributions depend only on (position, value), and
// fragmentation preserves each datum's absolute position and moves ST
// bits onto the piece holding the marked element, the accumulated code
// is identical no matter how chunks were split, merged, repacked or
// reordered — verified exhaustively by tests and bench E4.
//
// Fields NOT covered (TYPE, LEN, SIZE, T.SN, T.ST) are protected by
// virtual-reassembly failure; C.SN and X.SN by the consistency checks
// below (Table 1's three detection mechanisms).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "src/chunk/types.hpp"
#include "src/edc/wsc2.hpp"

namespace chunknet {

struct InvariantConfig {
  /// Capacity of the data region in 32-bit symbols (paper: 16,384,
  /// i.e. 64 KiB TPDUs).
  std::uint32_t max_data_symbols{16384};
};

/// Incremental, order-independent accumulator of one TPDU's invariant.
class TpduInvariant {
 public:
  explicit TpduInvariant(InvariantConfig cfg = {}) : cfg_(cfg) {}

  /// Absorbs one data chunk belonging to this TPDU. The caller is
  /// responsible for duplicate rejection (virtual reassembly) — a
  /// duplicate absorbed twice cancels itself and corrupts the code,
  /// which is exactly why §3.3 requires rejecting duplicates.
  /// Returns false if the chunk violates the layout (SIZE not a
  /// multiple of 4, or data beyond max_data_symbols).
  ///
  /// The (header, payload) form is the primitive: it reads the payload
  /// exactly once wherever it lives, so the zero-copy receive path can
  /// absorb straight from the packet buffer.
  bool absorb(const ChunkHeader& h, std::span<const std::uint8_t> payload);
  bool absorb(const Chunk& c) { return absorb(c.h, c.payload); }
  bool absorb(const ChunkView& c) { return absorb(c.h, c.payload); }

  Wsc2Code value() const { return acc_.value(); }

 private:
  void encode_symbol(std::uint32_t pos, std::uint32_t v) {
    // Zero-valued symbols are the identity — unused positions are
    // "equivalent to encoding a symbol of zero at that i value".
    if (v != 0) acc_.add_symbol(pos, v);
  }

  InvariantConfig cfg_;
  Wsc2Accumulator acc_;
  bool ids_encoded_{false};
};

/// The Table-1 "Consistency Check" mechanism for C.SN and X.SN:
/// (C.SN − T.SN) must be constant across all chunks of a TPDU, and
/// (C.SN − X.SN) constant across all chunks of an external PDU within
/// it. Both differences are preserved by fragmentation (all SNs shift
/// together), so any divergence is corruption.
class SnConsistencyChecker {
 public:
  /// Feeds one data chunk; returns false on an inconsistency. Only the
  /// header participates, so a ChunkView's header works identically.
  bool check(const ChunkHeader& h);
  bool check(const Chunk& c) { return check(c.h); }
  bool check(const ChunkView& c) { return check(c.h); }

  bool consistent() const { return consistent_; }

 private:
  std::optional<std::uint32_t> delta_ct_;
  std::map<std::uint32_t, std::uint32_t> delta_cx_by_xid_;
  bool consistent_{true};
};

}  // namespace chunknet
