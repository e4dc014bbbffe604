// Tests for GF(2^32) arithmetic: field axioms, the structure facts the
// WSC-2 design depends on (irreducibility, order of α), and agreement
// between the fast and reference multiply paths.
#include "src/gf/gf32.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"

namespace chunknet::gf32 {
namespace {

TEST(Gf32, AdditionIsXor) {
  EXPECT_EQ(add(0xF0F0F0F0u, 0x0F0F0F0Fu), 0xFFFFFFFFu);
  EXPECT_EQ(add(0x12345678u, 0x12345678u), 0u);  // every element self-inverse
}

TEST(Gf32, MultiplicativeIdentity) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t a = rng.u32();
    EXPECT_EQ(mul(a, 1), a);
    EXPECT_EQ(mul(1, a), a);
    EXPECT_EQ(mul(a, 0), 0u);
  }
}

TEST(Gf32, FastMultiplyMatchesReference) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t a = rng.u32();
    const std::uint32_t b = rng.u32();
    ASSERT_EQ(mul(a, b), mul_shift(a, b)) << a << " * " << b;
  }
}

TEST(Gf32, MultiplicationCommutes) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t a = rng.u32();
    const std::uint32_t b = rng.u32();
    EXPECT_EQ(mul(a, b), mul(b, a));
  }
}

TEST(Gf32, MultiplicationAssociates) {
  Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    const std::uint32_t a = rng.u32();
    const std::uint32_t b = rng.u32();
    const std::uint32_t c = rng.u32();
    EXPECT_EQ(mul(mul(a, b), c), mul(a, mul(b, c)));
  }
}

TEST(Gf32, DistributesOverAddition) {
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const std::uint32_t a = rng.u32();
    const std::uint32_t b = rng.u32();
    const std::uint32_t c = rng.u32();
    EXPECT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
  }
}

TEST(Gf32, PolynomialIsIrreducible) {
  // x^(2^16) != x but x^(2^32) == x  ⇒  the minimal polynomial of x has
  // degree 32, i.e. the reduction polynomial is irreducible.
  std::uint32_t t = kAlpha;
  for (int i = 0; i < 16; ++i) t = mul(t, t);
  EXPECT_NE(t, kAlpha);
  for (int i = 0; i < 16; ++i) t = mul(t, t);
  EXPECT_EQ(t, kAlpha);
}

TEST(Gf32, AlphaOrderExceedsWsc2PositionLimit) {
  // ord(α) = (2^32−1)/3 = 1 431 655 765 (verified: α^n = 1 and
  // α^(n/p) ≠ 1 for each prime p | n). WSC-2 needs ord(α) > 2^29−2.
  const std::uint64_t n = 1431655765ull;  // 5 · 17 · 257 · 65537
  EXPECT_EQ(pow(kAlpha, n), 1u);
  for (const std::uint64_t p : {5ull, 17ull, 257ull, 65537ull}) {
    EXPECT_NE(pow(kAlpha, n / p), 1u) << "order divides n/" << p;
  }
  EXPECT_GT(n, (1ull << 29) - 2);
}

TEST(Gf32, PowMatchesRepeatedMultiplication) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const std::uint32_t a = rng.u32() | 1u;
    const std::uint64_t e = rng.below(500);
    std::uint32_t expect = 1;
    for (std::uint64_t k = 0; k < e; ++k) expect = mul(expect, a);
    EXPECT_EQ(pow(a, e), expect);
  }
}

TEST(Gf32, PowZeroExponentIsOne) {
  EXPECT_EQ(pow(0x12345678u, 0), 1u);
  EXPECT_EQ(pow(0u, 0), 1u);
}

TEST(Gf32, InverseSatisfiesDefinition) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    std::uint32_t a = rng.u32();
    if (a == 0) a = 1;
    EXPECT_EQ(mul(a, inverse(a)), 1u);
  }
}

TEST(Gf32, PowerLadderMatchesPow) {
  const auto& ladder = PowerLadder::shared();
  Rng rng(8);
  EXPECT_EQ(ladder.alpha_pow(0), 1u);
  EXPECT_EQ(ladder.alpha_pow(1), kAlpha);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t e = static_cast<std::uint32_t>(rng.below(1u << 29));
    EXPECT_EQ(ladder.alpha_pow(e), pow(kAlpha, e)) << "e=" << e;
  }
}

TEST(Gf32, DistinctWeightsWithinCodeSpace) {
  // Spot-check that αⁱ ≠ αʲ for i ≠ j sampled inside the 2^29 code
  // space (guaranteed by the order bound; this catches table bugs).
  const auto& ladder = PowerLadder::shared();
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng.below((1u << 29) - 2));
    const std::uint32_t b = static_cast<std::uint32_t>(rng.below((1u << 29) - 2));
    if (a == b) continue;
    EXPECT_NE(ladder.alpha_pow(a), ladder.alpha_pow(b));
  }
}

TEST(Gf32, TimesAlpha4EqualsFourAlphaSteps) {
  // Four single ×α steps (the scalar Horner chain's stride) must agree
  // with a full multiply by α⁴, for random and boundary inputs —
  // including every top-nibble carry pattern the chain folds bit by
  // bit.
  const std::uint32_t alpha4 = PowerLadder::shared().alpha_pow(4);
  Rng rng(10);
  const std::uint32_t edge[] = {0u, 1u, 0x80000000u, 0xF0000000u,
                                0xFFFFFFFFu, kReduction};
  for (const std::uint32_t a : edge) {
    EXPECT_EQ(times_alpha(times_alpha(times_alpha(times_alpha(a)))),
              mul(a, alpha4));
  }
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t a = rng.u32();
    EXPECT_EQ(times_alpha(times_alpha(times_alpha(times_alpha(a)))),
              mul(a, alpha4));
  }
}

TEST(Gf32, AllMulKernelsMatchShiftOracle) {
  // The dispatched mul, the portable windowed kernel, and (when the
  // CPU has one) the native carry-less-multiply kernel must all be
  // bit-identical to the shift-and-reduce reference.
  const detail::MulFn native = detail::native_clmul_kernel();
  Rng rng(11);
  const std::uint32_t edge[] = {0u,          1u,          2u,
                                kReduction,  0x80000000u, 0xFFFFFFFFu,
                                0x7FFFFFFFu, 0x00010001u};
  for (const std::uint32_t a : edge) {
    for (const std::uint32_t b : edge) {
      const std::uint32_t want = mul_shift(a, b);
      ASSERT_EQ(mul(a, b), want) << a << " * " << b;
      ASSERT_EQ(mul_windowed(a, b), want) << a << " * " << b;
      if (native != nullptr) {
        ASSERT_EQ(native(a, b), want) << a << " * " << b;
      }
    }
  }
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t a = rng.u32();
    const std::uint32_t b = rng.u32();
    const std::uint32_t want = mul_shift(a, b);
    ASSERT_EQ(mul_windowed(a, b), want) << a << " * " << b;
    if (native != nullptr) {
      ASSERT_EQ(native(a, b), want) << a << " * " << b;
    }
  }
}

TEST(Gf32, WidenedAlphaStepsMatchFullMultiply) {
  // times_alpha8/times_alpha16 (the slice-by-8 and 16-word-group
  // strides) must agree with a full multiply by α⁸/α¹⁶.
  const std::uint32_t alpha8 = PowerLadder::shared().alpha_pow(8);
  const std::uint32_t alpha16 = PowerLadder::shared().alpha_pow(16);
  Rng rng(12);
  const std::uint32_t edge[] = {0u, 1u, 0x80000000u, 0xF0000000u,
                                0xFFFF0000u, 0x0000FFFFu, 0xFFFFFFFFu,
                                kReduction};
  for (const std::uint32_t a : edge) {
    EXPECT_EQ(times_alpha8(a), mul(a, alpha8));
    EXPECT_EQ(times_alpha16(a), mul(a, alpha16));
  }
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t a = rng.u32();
    ASSERT_EQ(times_alpha8(a), mul(a, alpha8)) << a;
    ASSERT_EQ(times_alpha16(a), mul(a, alpha16)) << a;
  }
}

TEST(Gf32, ReduceHandlesHighDegreeProducts) {
  // reduce(clmul(a,b)) must equal the reference multiply for maximal
  // inputs (degree-62 products exercise the double fold).
  EXPECT_EQ(reduce(clmul(0xFFFFFFFFu, 0xFFFFFFFFu)),
            mul_shift(0xFFFFFFFFu, 0xFFFFFFFFu));
  EXPECT_EQ(reduce(clmul(0x80000000u, 0x80000000u)),
            mul_shift(0x80000000u, 0x80000000u));
}

}  // namespace
}  // namespace chunknet::gf32
