#include "src/pipeline/stages.hpp"

#include <cassert>
#include <cstring>

#include "src/gf/gf32.hpp"

namespace chunknet {

namespace {

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

void XorCipherStage::apply(std::uint32_t pos,
                           std::span<std::uint8_t> bytes) const {
  const std::size_t words = bytes.size() / 4;
  std::uint8_t* p = bytes.data();
  for (std::size_t w = 0; w < words; ++w, p += 4) {
    store_be32(p, load_be32(p) ^ keyword(pos + static_cast<std::uint32_t>(w)));
  }
}

ProcessResult layered_process(std::uint32_t pos,
                              std::span<const std::uint8_t> in,
                              std::span<std::uint8_t> out,
                              const XorCipherStage& cipher) {
  assert(out.size() >= in.size());
  ProcessResult r;
  const std::size_t n = in.size();

  // Pass 1: copy into place (placement layer).
  std::memcpy(out.data(), in.data(), n);
  r.bytes_read += n;
  r.bytes_written += n;
  ++r.passes;

  // Pass 2: decipher in place (security layer).
  cipher.apply(pos, out.subspan(0, n));
  r.bytes_read += n;
  r.bytes_written += n;
  ++r.passes;

  // Pass 3: checksum (error-control layer).
  Wsc2Accumulator acc;
  acc.add_words(pos, out.subspan(0, n));
  r.bytes_read += n;
  ++r.passes;

  r.code = acc.value();
  return r;
}

ProcessResult integrated_process(std::uint32_t pos,
                                 std::span<const std::uint8_t> in,
                                 std::span<std::uint8_t> out,
                                 const XorCipherStage& cipher) {
  assert(out.size() >= in.size());
  ProcessResult r;
  const std::size_t words = in.size() / 4;

  // One loop, three layers: load once, decipher, checksum, store. The
  // loop runs BACKWARDS so the checksum can use Horner's rule (one ×α
  // per word) — legal precisely because every stage is order-tolerant.
  std::uint32_t p0 = 0;
  std::uint32_t horner = 0;
  for (std::size_t w = words; w-- > 0;) {
    const std::uint32_t word =
        load_be32(in.data() + w * 4) ^
        cipher.keyword(pos + static_cast<std::uint32_t>(w));
    p0 ^= word;
    horner = gf32::times_alpha(horner) ^ word;
    store_be32(out.data() + w * 4, word);
  }
  r.bytes_read = in.size();
  r.bytes_written = in.size();
  r.passes = 1;
  r.code = {p0, gf32::mul(gf32::PowerLadder::shared().alpha_pow(pos), horner)};
  return r;
}

}  // namespace chunknet
