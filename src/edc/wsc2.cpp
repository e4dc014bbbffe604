#include "src/edc/wsc2.hpp"

#include "src/edc/wsc2_kernels.hpp"

namespace chunknet {

namespace {
std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}
}  // namespace

namespace {

// The trailing non-word bytes of `bytes`, if any, pad-absorbed as one
// partial big-endian symbol. Such bytes are a contract violation for
// EDC-covered data; absorbing them (at position pos + words) means
// nothing is silently dropped if a caller slips.
std::uint32_t partial_tail_symbol(std::span<const std::uint8_t> bytes) {
  const std::size_t words = bytes.size() / 4;
  const std::size_t tail = bytes.size() - words * 4;
  std::uint32_t d = 0;
  for (std::size_t i = 0; i < tail; ++i) {
    d |= static_cast<std::uint32_t>(bytes[words * 4 + i])
         << (24 - 8 * static_cast<int>(i));
  }
  return d;
}

}  // namespace

void Wsc2Accumulator::add_words_scalar(std::uint32_t pos,
                                       std::span<const std::uint8_t> bytes) {
  // A contiguous run contributes Σ α^(pos+w)·d_w = α^pos · H where
  // H = Σ α^w·d_w evaluates by Horner's rule over the REVERSED word
  // order: H = d₀ ⊕ α(d₁ ⊕ α(d₂ ⊕ …)). Each step is one ×α (a shift
  // and conditional XOR), so the run costs ~1 cheap op per word plus a
  // single full multiply by the ladder weight α^pos at the end —
  // preserving exact equality with per-symbol absorption (tested).
  const std::size_t words = bytes.size() / 4;
  std::uint32_t horner = 0;

  if (bytes.size() % 4 != 0) {
    const std::uint32_t d = partial_tail_symbol(bytes);
    p0_ ^= d;
    horner = d;
  } else if (words == 0) {
    return;
  }

  const std::uint8_t* base = bytes.data();
  for (std::size_t w = words; w-- > 0;) {
    const std::uint32_t d = load_be32(base + w * 4);
    p0_ ^= d;
    horner = gf32::times_alpha(horner) ^ d;
  }
  p1_ ^= gf32::mul(gf32::PowerLadder::shared().alpha_pow(pos), horner);
}

void Wsc2Accumulator::add_words(std::uint32_t pos,
                                std::span<const std::uint8_t> bytes) {
  // The scalar loop's `horner = α·horner ⊕ d` is a serial dependency
  // chain, so it runs at the ×α latency per word no matter how wide
  // the core is. The run of whole words therefore goes through the
  // dispatched kernel (src/edc/wsc2_kernels.hpp): slice-by-8 Horner
  // chains on portable hardware, 16-word unreduced SIMD groups on
  // AVX2+PCLMUL machines — all computing the exact same pair
  //     x = ⊕ d_w,   h = Σ α^w ⊗ d_w
  // over GF(2^32), hence bit-identical to this function's historical
  // output (differential-tested against add_words_scalar). A partial
  // tail symbol is grafted at offset `words` with one ladder multiply,
  // exactly where the scalar recurrence would have placed it.
  const std::size_t words = bytes.size() / 4;
  std::uint32_t tail = 0;
  const bool has_tail = bytes.size() % 4 != 0;
  if (has_tail) {
    tail = partial_tail_symbol(bytes);
    p0_ ^= tail;
  } else if (words == 0) {
    return;
  }

  const wsc2_kernels::RunSum rs = wsc2_kernels::dispatch()(bytes.data(), words);
  p0_ ^= rs.x;
  std::uint32_t horner = rs.h;
  if (has_tail) {
    horner ^= gf32::mul(gf32::PowerLadder::shared().alpha_pow(
                            static_cast<std::uint32_t>(words)),
                        tail);
  }
  p1_ ^= gf32::mul(gf32::PowerLadder::shared().alpha_pow(pos), horner);
}

Wsc2Code wsc2_compute(std::span<const std::uint8_t> bytes,
                      std::uint32_t first_pos) {
  Wsc2Accumulator acc;
  acc.add_words(first_pos, bytes);
  return acc.value();
}

}  // namespace chunknet
