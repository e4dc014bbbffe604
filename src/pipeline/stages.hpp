// Integrated Layer Processing stages (paper §1, [CLAR 90]).
//
// The paper's throughput argument: on a RISC workstation the memory
// bus is the bottleneck, so what matters is how many times each data
// byte crosses it. Buffering for reassembly moves data twice; immediate
// processing moves it once; and ILP further merges the per-layer
// processing loops (checksum, decryption, copy) into ONE pass so the
// data is read once however many functions run.
//
// The stages here are the order-tolerant protocol functions chunks
// enable ([FELD 92]): each operates on 32-bit words keyed by ABSOLUTE
// stream position, so a stage can run on any chunk in any order:
//   - Wsc2Stage: the incremental error-detection sum;
//   - XorCipherStage: a position-keyed per-block transform standing in
//     for the order-tolerant DES-CBC variant of [FELD 92] (DESIGN.md
//     substitution: same dataflow, per-word key derived from position);
//   - PlacementStage: the copy into application memory.
//
// `layered_process` runs the stages as separate passes (conventional
// layering: one loop per protocol function). `integrated_process` runs
// all stages inside a single loop (ILP). Bench E6/E10 measures the
// real memory-bandwidth difference between the two and multiplies it
// out with the touch accounting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/edc/wsc2.hpp"

namespace chunknet {

/// Position-keyed stream transform: word i is XORed with a key derived
/// from the absolute position i, so encryption/decryption work on
/// disordered fragments. An involution (applying twice restores data).
class XorCipherStage {
 public:
  explicit XorCipherStage(std::uint64_t key = 0x0BADC0DECAFEF00Dull)
      : key_(key) {}

  /// Transforms `words` 32-bit words in place, starting at absolute
  /// word position `pos`.
  void apply(std::uint32_t pos, std::span<std::uint8_t> bytes) const;

  /// Keystream word for one absolute position (splitmix-style mix).
  std::uint32_t keyword(std::uint32_t pos) const {
    std::uint64_t z = key_ + (static_cast<std::uint64_t>(pos) + 1) *
                                 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::uint32_t>(z >> 32);
  }

 private:
  std::uint64_t key_;
};

struct ProcessResult {
  Wsc2Code code;
  std::uint64_t bytes_read{0};    ///< bytes loaded from memory
  std::uint64_t bytes_written{0}; ///< bytes stored to memory
  std::uint64_t passes{0};        ///< loops over the data
};

/// Conventional layering: decipher pass, then checksum pass, then copy
/// pass — the data crosses the cache/bus once per stage.
ProcessResult layered_process(std::uint32_t pos,
                              std::span<const std::uint8_t> in,
                              std::span<std::uint8_t> out,
                              const XorCipherStage& cipher);

/// Integrated Layer Processing: one loop performs decipher + checksum +
/// placement word by word — the data is read once and written once.
ProcessResult integrated_process(std::uint32_t pos,
                                 std::span<const std::uint8_t> in,
                                 std::span<std::uint8_t> out,
                                 const XorCipherStage& cipher);

}  // namespace chunknet
