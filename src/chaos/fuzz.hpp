// Structure-aware fuzzing of the wire codecs.
//
// The decoders accept untrusted bytes, so they are fuzzed as a unit:
// a generator produces packets (well-formed chains plus raw garbage), a
// mutator perturbs them at the exact field boundaries of the canonical
// layout (LEN/SIZE, the envelope length, SN/ID words, truncated tails),
// and every input runs through differential and round-trip oracles:
//
//   - differential decode: decode_packet_views must make byte-for-byte
//     the accept/reject decision of an independent reference (envelope
//     checks plus a decode_chunk_view loop) and produce identical
//     chunks — and an accepted packet must survive re-encode →
//     re-decode unchanged (codec idempotence);
//   - fragment round-trip: splitting any decoded data chunk on element
//     boundaries (Appendix C) must conserve bytes and advance every
//     framing tuple in lock-step;
//   - compression round-trip: compact-syntax encode → decode must
//     reproduce the canonical headers exactly (Appendix A losslessness).
//
// Interesting inputs live in tests/fuzz_corpus/ as hex lines; every
// regression found by the soak tool is checked in there so it is
// replayed forever by tests/test_chaos_fuzz.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.hpp"

namespace chunknet {

/// Generates one fuzz input: usually a well-formed packet holding a
/// random chunk chain (so mutations start from deep in the accept
/// path), sometimes raw garbage or a structurally hostile header.
std::vector<std::uint8_t> random_fuzz_packet(Rng& rng);

/// Mutates `bytes` in place: byte flips, 16-bit field overwrites with
/// extreme values at SIZE/LEN/envelope-length boundaries, truncation,
/// extension. Biased toward the canonical field offsets rather than
/// uniform positions.
void mutate_packet(std::vector<std::uint8_t>& bytes, Rng& rng);

/// Differential + idempotence oracle over one input. Returns a
/// description of the first divergence, or nullopt when the view
/// decoder agrees with the reference (acceptance, chunk sequence,
/// payload bytes, re-encode fixpoint).
std::optional<std::string> differential_decode(
    std::span<const std::uint8_t> bytes);

/// Appendix-C oracle: split every decoded multi-element data chunk at a
/// random element boundary and check byte conservation, tuple lock-step
/// advance, and stop-bit inheritance. nullopt = holds (or no splittable
/// chunk decoded).
std::optional<std::string> fragment_roundtrip(
    std::span<const std::uint8_t> bytes, Rng& rng);

/// Appendix-A oracle: compact-syntax encode → decode of the decoded
/// chunks reproduces the canonical headers and payloads exactly.
/// nullopt = holds (or input not decodable).
std::optional<std::string> compress_roundtrip(
    std::span<const std::uint8_t> bytes, Rng& rng);

/// Signalling oracle: every decoded chunk — signal-typed or not — is
/// fed to all five signal parsers. A parser may only accept when
/// signal_kind matches its kind; an accepted message must re-encode
/// via make_signal_chunk and re-parse to an equal message (bijection
/// on the accept set); an accepted GapNak's range count must be
/// exactly what the payload bytes can hold (no claimed-count
/// allocation). nullopt = holds (or input not decodable).
std::optional<std::string> signal_roundtrip(
    std::span<const std::uint8_t> bytes);

/// SIMD-vs-scalar differential oracle: treats the input as raw symbol
/// data and checks every registered WSC-2 kernel (slice-by-8, AVX2+
/// PCLMUL 16-word) against the scalar Horner reference — both the bare
/// kernel RunSum and the full Wsc2Accumulator at a fuzz-chosen start
/// position — and the dispatched/windowed GF(2^32) multiplies (plus the
/// widened ×α⁸/×α¹⁶ steps) against the shift-and-reduce oracle on word
/// pairs drawn from the input. nullopt = every variant agrees
/// bit-for-bit.
std::optional<std::string> simd_differential(
    std::span<const std::uint8_t> bytes, Rng& rng);

/// Runs every oracle above on one input; first failure wins.
std::optional<std::string> fuzz_one(std::span<const std::uint8_t> bytes,
                                    Rng& rng);

// ---------------------------------------------------------- corpus I/O
// One input per line as lowercase hex; blank lines and lines starting
// with '#' are ignored. The text form diffs well and survives editors.

std::string to_hex(std::span<const std::uint8_t> bytes);
std::optional<std::vector<std::uint8_t>> from_hex(const std::string& line);

/// Loads every input from a corpus file. Missing file = empty corpus.
std::vector<std::vector<std::uint8_t>> load_corpus(const std::string& path);

/// Appends one input (with a '#' comment line above it) to a corpus
/// file. Returns false on I/O failure.
bool append_corpus_entry(const std::string& path,
                         std::span<const std::uint8_t> bytes,
                         const std::string& comment);

}  // namespace chunknet
