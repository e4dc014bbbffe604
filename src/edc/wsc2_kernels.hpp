// Named WSC-2 inner-loop kernels and their runtime dispatch.
//
// Every kernel computes the same pure function over a run of whole
// big-endian 32-bit words d_0..d_{words-1}:
//
//     x = ⊕_w d_w            (the P0 contribution)
//     h = Σ_w α^w ⊗ d_w      (the position-free Horner sum; the caller
//                             grafts it at its absolute position with
//                             one multiply by α^pos)
//
// Both outputs are elements of GF(2^32), so every kernel — scalar
// chain, slice-by-8, or the AVX2+PCLMUL 16-word groups — produces
// bit-identical results; the scalar chain is the oracle the others are
// differential-tested against (tests/test_wsc2.cpp, chaos fuzzers).
//
// Dispatch picks the widest kernel the CPU supports once, at first
// use: AVX2+PCLMUL → clmul16, otherwise the portable slice-by-8.
// CHUNKNET_FORCE_SCALAR pins the scalar chain (src/common/cpu.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace chunknet::wsc2_kernels {

/// The two accumulator deltas a run of whole words contributes.
struct RunSum {
  std::uint32_t x{0};  ///< ⊕ d_w
  std::uint32_t h{0};  ///< Σ α^w ⊗ d_w
};

using KernelFn = RunSum (*)(const std::uint8_t* base, std::size_t words);

/// Word-at-a-time Horner chain: one ×α per word. The oracle.
RunSum run_scalar(const std::uint8_t* base, std::size_t words);

/// Eight independent Horner chains stepped by α⁸ — portable widened
/// kernel (one shift + one 256-entry table fold per chain step).
RunSum run_sliced8(const std::uint8_t* base, std::size_t words);

/// The native SIMD kernel for this build target, or nullptr when the
/// running CPU lacks the required features (AVX2+PCLMUL on x86-64).
/// Defined in wsc2_simd.cpp.
KernelFn native_kernel();
const char* native_kernel_name();

/// The kernel add_words dispatches to (cached after first call).
KernelFn dispatch();

/// Name of the dispatched kernel: "scalar", "sliced8", or
/// the native kernel's name ("clmul16"). Recorded in BENCH_*.json.
const char* selected_kernel_name();

/// Every kernel runnable on this machine, for bench tables and
/// differential tests: always scalar/sliced8, plus the native
/// kernel when the CPU supports it (independent of FORCE_SCALAR —
/// that pin affects dispatch(), not availability).
struct NamedKernel {
  const char* name;
  KernelFn fn;
};
std::span<const NamedKernel> available_kernels();

}  // namespace chunknet::wsc2_kernels
