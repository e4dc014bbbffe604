#include "src/edc/wsc2_kernels.hpp"

#include <vector>

#include "src/common/cpu.hpp"
#include "src/gf/gf32.hpp"

namespace chunknet::wsc2_kernels {

namespace {

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

// Scalar Horner of the words in [from, words), i.e. everything past a
// sliced kernel's group region, folded into rs.x and returned as the
// remainder sum Σ_{j} α^j ⊗ d_{from+j}. The caller grafts it at its
// offset with one ladder multiply.
inline std::uint32_t remainder_chain(const std::uint8_t* base,
                                     std::size_t from, std::size_t words,
                                     RunSum& rs) {
  std::uint32_t rem = 0;
  for (std::size_t w = words; w-- > from;) {
    const std::uint32_t d = load_be32(base + w * 4);
    rs.x ^= d;
    rem = gf32::times_alpha(rem) ^ d;
  }
  return rem;
}

}  // namespace

RunSum run_scalar(const std::uint8_t* base, std::size_t words) {
  RunSum rs;
  for (std::size_t w = words; w-- > 0;) {
    const std::uint32_t d = load_be32(base + w * 4);
    rs.x ^= d;
    rs.h = gf32::times_alpha(rs.h) ^ d;
  }
  return rs;
}

RunSum run_sliced8(const std::uint8_t* base, std::size_t words) {
  // Split the word sequence by index mod 8:
  //     h = Σ_w α^w·d_w = Σ_{r<8} α^r · H_r,  H_r = Σ_q (α⁸)^q·d_{8q+r}
  // Each H_r is its own Horner chain in α⁸ (one shift + one 256-entry
  // table fold per step, gf32::times_alpha8), and the eight chains are
  // independent — the CPU overlaps them, covering a 32-byte stride per
  // chain-step latency. Runs under two groups take the scalar chain.
  const std::size_t groups = words / 8;
  if (groups < 2) return run_scalar(base, words);

  RunSum rs;
  const std::size_t rem_start = groups * 8;
  const std::uint32_t rem = remainder_chain(base, rem_start, words, rs);

  std::uint32_t h[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::uint32_t x[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t g = groups; g-- > 0;) {
    const std::uint8_t* p = base + g * 32;
    for (int r = 0; r < 8; ++r) {
      const std::uint32_t d = load_be32(p + 4 * r);
      x[r] ^= d;
      h[r] = gf32::times_alpha8(h[r]) ^ d;
    }
  }
  for (int r = 0; r < 8; ++r) rs.x ^= x[r];

  // h = Σ_{r<8} α^r·H_r by Horner over the chain index.
  std::uint32_t horner = h[7];
  for (int r = 6; r >= 0; --r) horner = gf32::times_alpha(horner) ^ h[r];
  rs.h = horner;
  if (rem != 0) {
    rs.h ^= gf32::mul(gf32::PowerLadder::shared().alpha_pow(
                          static_cast<std::uint32_t>(rem_start)),
                      rem);
  }
  return rs;
}

namespace {

KernelFn resolve() {
  if (force_scalar()) return &run_scalar;
  if (KernelFn fn = native_kernel()) return fn;
  return &run_sliced8;
}

}  // namespace

KernelFn dispatch() {
  static const KernelFn fn = resolve();
  return fn;
}

std::span<const NamedKernel> available_kernels() {
  static const std::vector<NamedKernel> kernels = [] {
    std::vector<NamedKernel> v{{"scalar", &run_scalar},
                               {"sliced8", &run_sliced8}};
    if (KernelFn fn = native_kernel()) v.push_back({native_kernel_name(), fn});
    return v;
  }();
  return kernels;
}

const char* selected_kernel_name() {
  const KernelFn fn = dispatch();
  for (const NamedKernel& k : available_kernels()) {
    if (k.fn == fn) return k.name;
  }
  return "scalar";
}

}  // namespace chunknet::wsc2_kernels
