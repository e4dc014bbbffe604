// Arithmetic in GF(2^32) = GF(2)[x] / (x^32 + x^7 + x^3 + x^2 + 1).
//
// The paper's WSC-2 error-detection code (§4, [MCAU 93a]) computes two
// parity symbols over GF(2^32): P0 = Σ dᵢ and P1 = Σ αⁱ ⊗ dᵢ, where ⊕ is
// field addition (XOR) and ⊗ is field multiplication. The field itself
// is unspecified in the paper beyond "GF(2^32)"; we fix the reduction
// polynomial to the standard low-weight irreducible pentanomial
// (32,7,3,2,0). Irreducibility and the order of α = x are verified by
// tests (`tests/test_gf32.cpp`): α has multiplicative order
// (2^32−1)/3 = 1 431 655 765 — far above the 2^29−2 distinct position
// weights WSC-2 needs, so αⁱ ≠ αʲ for any two positions in code space
// and all double-symbol errors are detected.
//
// Three multiply paths are provided:
//  - mul_shift: textbook 32-step shift-and-reduce (reference),
//  - mul: windowed carry-less multiply + two-step fold reduction (fast,
//    portable — no CLMUL intrinsics, per guide P.2 "ISO standard C++"),
//  - PowerLadder: O(1) αⁱ lookup via two 2^16-entry tables, used by the
//    WSC-2 accumulator so disordered symbols cost one multiply each.
#pragma once

#include <array>
#include <cstdint>

namespace chunknet::gf32 {

/// Low 32 bits of the reduction polynomial: x^7 + x^3 + x^2 + 1.
inline constexpr std::uint32_t kReduction = 0x8Du;

/// The generator element α = x.
inline constexpr std::uint32_t kAlpha = 0x2u;

/// Field addition/subtraction (they coincide in characteristic 2).
constexpr std::uint32_t add(std::uint32_t a, std::uint32_t b) { return a ^ b; }

/// Carry-less (polynomial) multiplication of two 32-bit polynomials,
/// producing the full 63-bit product. Reference implementation.
constexpr std::uint64_t clmul(std::uint32_t a, std::uint32_t b) {
  std::uint64_t r = 0;
  std::uint64_t bb = b;
  while (a != 0) {
    if (a & 1u) r ^= bb;
    a >>= 1;
    bb <<= 1;
  }
  return r;
}

/// Reduces a 63-bit polynomial modulo the field polynomial.
constexpr std::uint32_t reduce(std::uint64_t v) {
  // v = hi·x^32 + lo, and x^32 ≡ kReduction (mod p). kReduction has
  // degree 7, so one fold leaves at most degree 31+7 = 38; a second
  // fold of the (≤ 7-bit) residual high part finishes the job.
  const std::uint32_t hi = static_cast<std::uint32_t>(v >> 32);
  std::uint64_t t = clmul(hi, kReduction) ^ (v & 0xFFFFFFFFu);
  const std::uint32_t hi2 = static_cast<std::uint32_t>(t >> 32);
  t ^= clmul(hi2, kReduction) ^ (static_cast<std::uint64_t>(hi2) << 32);
  return static_cast<std::uint32_t>(t);
}

/// Multiplication by α = x: one shift and a conditional XOR. This is
/// what makes WSC-2's contiguous-run path fast — Horner's rule turns
/// the per-word weight multiply into this primitive.
constexpr std::uint32_t times_alpha(std::uint32_t a) {
  const std::uint32_t carry = a >> 31;
  return (a << 1) ^ (carry * kReduction);
}

/// 256-entry fold table: shifting a 32-bit polynomial left by 8
/// overflows its top 8 bits h past x^32, and x^32 ≡ kReduction, so
/// kAlpha8Fold[h] = h ⊗ kReduction. Degree ≤ 7 + 7 = 14, already
/// reduced. 1 KiB — lives comfortably in L1 next to the data stream.
inline constexpr std::array<std::uint32_t, 256> kAlpha8Fold = [] {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t h = 0; h < 256; ++h) {
    t[h] = static_cast<std::uint32_t>(clmul(h, kReduction));
  }
  return t;
}();

/// Multiplication by α⁸: one shift and one 256-entry table fold — the
/// slice-by-8 WSC-2 kernel's per-chain stride.
constexpr std::uint32_t times_alpha8(std::uint32_t a) {
  return (a << 8) ^ kAlpha8Fold[a >> 24];
}

/// Multiplication by α¹⁶: the 16-bit overflow folds as two bytes
/// (carry-less multiplication distributes over XOR), so the stride of a
/// 16-word SIMD group costs one shift, two loads, and two XORs.
constexpr std::uint32_t times_alpha16(std::uint32_t a) {
  return (a << 16) ^ (kAlpha8Fold[a >> 24] << 8) ^
         kAlpha8Fold[(a >> 16) & 0xFFu];
}

/// Reference multiply: shift-and-reduce. Used to validate `mul`.
constexpr std::uint32_t mul_shift(std::uint32_t a, std::uint32_t b) {
  std::uint32_t r = 0;
  while (b != 0) {
    if (b & 1u) r ^= a;
    b >>= 1;
    const bool carry = (a & 0x80000000u) != 0;
    a <<= 1;
    if (carry) a ^= kReduction;
  }
  return r;
}

/// Fast multiply. Dispatches once, at first call, to the best kernel
/// the CPU supports: a single-instruction carry-less multiply
/// (PCLMULQDQ on x86-64, PMULL on aarch64) when available, else the
/// portable windowed kernel. CHUNKNET_FORCE_SCALAR pins the windowed
/// kernel (src/common/cpu.hpp). All kernels are bit-identical —
/// mul_shift is the oracle (tested exhaustively against both).
std::uint32_t mul(std::uint32_t a, std::uint32_t b);

/// The portable 4-bit-window kernel (always available; the dispatch
/// fallback and the benchmarkable named variant).
std::uint32_t mul_windowed(std::uint32_t a, std::uint32_t b);

/// Name of the kernel mul() dispatches to: "pclmul", "pmull", or
/// "windowed". Recorded in BENCH_*.json metadata.
const char* mul_kernel_name();

namespace detail {
using MulFn = std::uint32_t (*)(std::uint32_t, std::uint32_t);
/// The native carry-less-multiply kernel, or nullptr when the CPU (or
/// the build target) lacks one. Defined in gf32_clmul.cpp.
MulFn native_clmul_kernel();
const char* native_clmul_name();
}  // namespace detail

/// a^e by square-and-multiply. pow(a, 0) == 1.
std::uint32_t pow(std::uint32_t a, std::uint64_t e);

/// Multiplicative inverse via Fermat: a^(2^32 − 2). Precondition a != 0.
std::uint32_t inverse(std::uint32_t a);

/// Constant-time-per-call αⁱ evaluation, i < 2^32, via two 2^16-entry
/// tables: αⁱ = α^(i_hi·2^16) ⊗ α^(i_lo). This is what makes WSC-2 on
/// *disordered* data cheap: any absolute symbol position i costs two
/// loads and one multiply, independent of arrival order.
class PowerLadder {
 public:
  PowerLadder();
  std::uint32_t alpha_pow(std::uint32_t i) const {
    return mul(high_[i >> 16], low_[i & 0xFFFFu]);
  }
  /// Returns a process-wide shared instance (built once, ~512 KiB).
  static const PowerLadder& shared();

 private:
  std::uint32_t low_[1u << 16];
  std::uint32_t high_[1u << 16];
};

}  // namespace chunknet::gf32
