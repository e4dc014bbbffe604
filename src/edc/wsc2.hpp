// WSC-2: the Weighted Sum Code used by the paper for end-to-end error
// detection over disordered, fragmented chunks (§4, [MCAU 93a]).
//
// A WSC-2 encoder takes 32-bit data symbols d_i at absolute positions i
// and produces two 32-bit parity symbols over GF(2^32):
//
//     P0 = ⊕_i d_i                 (plain XOR sum)
//     P1 = ⊕_i  αⁱ ⊗ d_i           (position-weighted sum)
//
// Valid positions are 0 ≤ i < 2^29 − 2; positions never written are
// equivalent to encoding a zero symbol there. Because each contribution
// depends only on (i, d_i), symbols may be absorbed IN ANY ORDER and
// partial accumulators may be COMBINED — exactly the property that lets
// a receiver checksum chunks as they arrive, before reassembly, and
// that keeps the checksum invariant under in-network fragmentation
// (each fragment's symbols keep their absolute positions).
//
// Detection power (verified empirically in bench E4):
//  - any single corrupted symbol is detected (P0 changes);
//  - any two corrupted symbols are detected: cancellation would need
//    e_i = e_j (from P0) and αⁱe = αʲe (from P1), i.e. αⁱ = αʲ, which
//    cannot happen inside the 2^29-symbol code space since ord(α) ≈ 2^30.4;
//  - random garbage passes with probability ≈ 2^-64.
// This matches the paper's claim of "error detection power of an
// equivalent CRC", while CRC itself cannot be computed on disordered
// data ([FELD 92], demonstrated by bench E4).
#pragma once

#include <cstdint>
#include <span>

#include "src/gf/gf32.hpp"

namespace chunknet {

/// The pair of parity symbols produced by WSC-2.
struct Wsc2Code {
  std::uint32_t p0{0};
  std::uint32_t p1{0};

  friend bool operator==(const Wsc2Code&, const Wsc2Code&) = default;
};

/// Largest valid symbol position (exclusive): 2^29 − 2 per the paper.
inline constexpr std::uint32_t kWsc2PositionLimit = (1u << 29) - 2;

/// Incremental, order-independent WSC-2 accumulator.
///
/// Thread-compatible; independent accumulators over disjoint symbol sets
/// can be combined with `combine` (used by the parallel-processing path
/// and by the transmitter, which encodes header fields and payload in
/// separate passes).
class Wsc2Accumulator {
 public:
  /// Absorbs one 32-bit symbol at absolute position `pos`.
  /// Precondition: pos < kWsc2PositionLimit.
  void add_symbol(std::uint32_t pos, std::uint32_t value) {
    p0_ ^= value;
    p1_ ^= gf32::mul(gf32::PowerLadder::shared().alpha_pow(pos), value);
  }

  /// Absorbs a run of 32-bit symbols starting at `pos`, reading
  /// big-endian words from `bytes`. `bytes.size()` must be a multiple
  /// of 4 (SIZE % 4 == 0 is enforced upstream for EDC-covered chunks).
  /// Dispatches to the widest kernel the CPU supports (slice-by-8
  /// Horner chains portably, 16-word AVX2+PCLMUL groups on x86-64 —
  /// see src/edc/wsc2_kernels.hpp); CHUNKNET_FORCE_SCALAR pins the
  /// scalar chain. Every kernel is bit-identical to
  /// `add_words_scalar` (tested).
  void add_words(std::uint32_t pos, std::span<const std::uint8_t> bytes);

  /// The reference word-at-a-time Horner loop (one ×α per word).
  /// Kept as the equality oracle for the sliced kernel and as the
  /// baseline for bench E10's scalar-vs-sliced comparison.
  void add_words_scalar(std::uint32_t pos, std::span<const std::uint8_t> bytes);

  /// Merges another accumulator (over a disjoint or identical-twice set
  /// of positions) into this one.
  void combine(const Wsc2Accumulator& other) {
    p0_ ^= other.p0_;
    p1_ ^= other.p1_;
  }

  Wsc2Code value() const { return {p0_, p1_}; }

  void reset() { p0_ = p1_ = 0; }

 private:
  std::uint32_t p0_{0};
  std::uint32_t p1_{0};
};

/// One-shot convenience: WSC-2 of a contiguous word buffer placed at
/// positions [first_pos, first_pos + words).
Wsc2Code wsc2_compute(std::span<const std::uint8_t> bytes,
                      std::uint32_t first_pos = 0);

}  // namespace chunknet
