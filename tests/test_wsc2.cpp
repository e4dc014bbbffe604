// Tests for the WSC-2 weighted-sum code: the order-independence and
// combination properties that make end-to-end error detection over
// disordered chunks possible (paper §4), and its guaranteed detection
// classes.
#include "src/edc/wsc2.hpp"

#include <gtest/gtest.h>

#include "src/edc/wsc2_kernels.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/common/rng.hpp"

namespace chunknet {
namespace {

std::vector<std::uint8_t> random_words(Rng& rng, std::size_t words) {
  std::vector<std::uint8_t> v(words * 4);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

TEST(Wsc2, EmptyIsZero) {
  Wsc2Accumulator acc;
  EXPECT_EQ(acc.value(), (Wsc2Code{0, 0}));
}

TEST(Wsc2, ZeroSymbolsAreIdentity) {
  Wsc2Accumulator acc;
  acc.add_symbol(100, 0);
  acc.add_symbol(12345, 0);
  EXPECT_EQ(acc.value(), (Wsc2Code{0, 0}));
}

TEST(Wsc2, SingleSymbolContribution) {
  Wsc2Accumulator acc;
  acc.add_symbol(0, 0xDEADBEEF);
  const Wsc2Code c = acc.value();
  EXPECT_EQ(c.p0, 0xDEADBEEFu);
  EXPECT_EQ(c.p1, 0xDEADBEEFu);  // α⁰ = 1
}

TEST(Wsc2, AddIsInvolution) {
  Wsc2Accumulator acc;
  acc.add_symbol(77, 0x12345678);
  acc.add_symbol(77, 0x12345678);
  EXPECT_EQ(acc.value(), (Wsc2Code{0, 0}));
}

TEST(Wsc2, OrderIndependent) {
  Rng rng(1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> symbols;
  for (std::uint32_t i = 0; i < 200; ++i) symbols.emplace_back(i * 3, rng.u32());

  Wsc2Accumulator forward;
  for (const auto& [pos, val] : symbols) forward.add_symbol(pos, val);

  std::vector<std::size_t> perm(symbols.size());
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.below(i + 1)]);
  }
  Wsc2Accumulator shuffled;
  for (const std::size_t i : perm) {
    shuffled.add_symbol(symbols[i].first, symbols[i].second);
  }
  EXPECT_EQ(forward.value(), shuffled.value());
}

TEST(Wsc2, CombinePartialAccumulators) {
  Rng rng(2);
  const auto data = random_words(rng, 64);
  const Wsc2Code whole = wsc2_compute(data, 10);

  Wsc2Accumulator a;
  Wsc2Accumulator b;
  a.add_words(10, std::span(data).subspan(0, 100));  // 25 words
  b.add_words(35, std::span(data).subspan(100));
  a.combine(b);
  EXPECT_EQ(a.value(), whole);
}

TEST(Wsc2, AddWordsMatchesAddSymbol) {
  Rng rng(3);
  const auto data = random_words(rng, 32);
  Wsc2Accumulator by_words;
  by_words.add_words(500, data);

  Wsc2Accumulator by_symbols;
  for (std::size_t w = 0; w < 32; ++w) {
    const std::uint32_t v = (static_cast<std::uint32_t>(data[4 * w]) << 24) |
                            (static_cast<std::uint32_t>(data[4 * w + 1]) << 16) |
                            (static_cast<std::uint32_t>(data[4 * w + 2]) << 8) |
                            data[4 * w + 3];
    by_symbols.add_symbol(500 + static_cast<std::uint32_t>(w), v);
  }
  EXPECT_EQ(by_words.value(), by_symbols.value());
}

TEST(Wsc2, DetectsEverySingleSymbolError) {
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t pos = static_cast<std::uint32_t>(rng.below(1u << 20));
    const std::uint32_t err = rng.u32() | 1u;  // nonzero error
    Wsc2Accumulator acc;
    acc.add_symbol(pos, err);  // difference accumulator of clean vs dirty
    EXPECT_NE(acc.value(), (Wsc2Code{0, 0}));
  }
}

TEST(Wsc2, DetectsEveryDoubleSymbolError) {
  // e_i at position i and e_j at position j (i≠j) can only cancel if
  // e_i == e_j (P0) and αⁱ == αʲ (P1) — impossible within code space.
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t i = static_cast<std::uint32_t>(rng.below(1u << 20));
    std::uint32_t j = static_cast<std::uint32_t>(rng.below(1u << 20));
    while (j == i) j = static_cast<std::uint32_t>(rng.below(1u << 20));
    const std::uint32_t e = rng.u32() | 1u;
    Wsc2Accumulator acc;
    acc.add_symbol(i, e);
    acc.add_symbol(j, e);  // worst case: identical error values
    EXPECT_NE(acc.value(), (Wsc2Code{0, 0}));
  }
}

TEST(Wsc2, DetectsSymbolTransposition) {
  // Swapping two different symbols leaves P0 unchanged but not P1 —
  // the property CRC has and the Internet checksum lacks.
  Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint32_t a = rng.u32();
    std::uint32_t b = rng.u32();
    while (b == a) b = rng.u32();
    Wsc2Accumulator clean;
    clean.add_symbol(11, a);
    clean.add_symbol(222, b);
    Wsc2Accumulator swapped;
    swapped.add_symbol(11, b);
    swapped.add_symbol(222, a);
    EXPECT_EQ(clean.value().p0, swapped.value().p0);
    EXPECT_NE(clean.value(), swapped.value());
  }
}

TEST(Wsc2, FragmentationInvariance) {
  // Computing the code over [0,N) in arbitrarily many position-tagged
  // pieces, in arbitrary order, equals the one-shot computation — the
  // foundation of the §4 invariant.
  Rng rng(7);
  const std::size_t words = 512;
  const auto data = random_words(rng, words);
  const Wsc2Code whole = wsc2_compute(data, 0);

  for (int trial = 0; trial < 20; ++trial) {
    // random partition into pieces
    std::vector<std::size_t> cuts{0, words};
    for (int c = 0; c < 15; ++c) cuts.push_back(rng.below(words + 1));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    struct Piece {
      std::size_t lo, hi;
    };
    std::vector<Piece> pieces;
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      pieces.push_back({cuts[k], cuts[k + 1]});
    }
    for (std::size_t i = pieces.size() - 1; i > 0; --i) {
      std::swap(pieces[i], pieces[rng.below(i + 1)]);
    }
    Wsc2Accumulator acc;
    for (const Piece& p : pieces) {
      acc.add_words(static_cast<std::uint32_t>(p.lo),
                    std::span(data).subspan(p.lo * 4, (p.hi - p.lo) * 4));
    }
    ASSERT_EQ(acc.value(), whole);
  }
}

TEST(Wsc2, TailBytesAbsorbedAsPartialSymbol) {
  // Non-multiple-of-4 inputs must still affect the code (guard rail).
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  const Wsc2Code with_tail = wsc2_compute(data);
  const Wsc2Code without_tail =
      wsc2_compute(std::span(data).subspan(0, 4));
  EXPECT_NE(with_tail, without_tail);
}

TEST(Wsc2, OneShotMatchesAccumulator) {
  Rng rng(8);
  const auto data = random_words(rng, 100);
  Wsc2Accumulator acc;
  acc.add_words(42, data);
  EXPECT_EQ(acc.value(), wsc2_compute(data, 42));
}

TEST(Wsc2, SlicedKernelMatchesScalarExactly) {
  // The dispatched Horner kernel must be bit-identical to the
  // word-at-a-time reference across every size class: empty, shorter
  // than one slice group, exact multiples of 4 words, remainder words
  // (1-3 past the last group), and partial byte tails.
  Rng rng(9);
  const std::size_t sizes[] = {0, 4, 8, 12, 16, 20, 28, 36, 64, 256,
                               1024, 4096, 5, 7, 9, 13, 17, 29, 1023};
  for (const std::size_t bytes : sizes) {
    std::vector<std::uint8_t> data(bytes);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    const std::uint32_t pos = static_cast<std::uint32_t>(rng.below(1u << 24));

    Wsc2Accumulator sliced;
    sliced.add_words(pos, data);
    Wsc2Accumulator scalar;
    scalar.add_words_scalar(pos, data);
    ASSERT_EQ(sliced.value(), scalar.value()) << "bytes=" << bytes;
  }
}

TEST(Wsc2, SlicedKernelMatchesScalarOnRandomSlices) {
  // Random (position, length) pairs accumulated into the SAME pair of
  // accumulators — catches any cross-call state divergence.
  Rng rng(10);
  Wsc2Accumulator sliced;
  Wsc2Accumulator scalar;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t words = rng.below(96);
    std::vector<std::uint8_t> data(words * 4 + rng.below(4));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    const std::uint32_t pos = static_cast<std::uint32_t>(rng.below(1u << 26));
    sliced.add_words(pos, data);
    scalar.add_words_scalar(pos, data);
    ASSERT_EQ(sliced.value(), scalar.value()) << "trial " << trial;
  }
}

TEST(Wsc2, EveryKernelMatchesScalarOracle) {
  // Every kernel this machine can run — sliced8 and the
  // native SIMD kernel when present — must produce the exact (x, h)
  // pair of the word-at-a-time scalar chain, across size classes
  // (below each kernel's internal fallback threshold, exact group
  // multiples, remainder words) and misaligned base pointers (payload
  // spans start at arbitrary packet offsets).
  Rng rng(11);
  const std::size_t word_counts[] = {0,  1,  2,   3,   4,   7,   8,  9,
                                     15, 16, 17,  31,  32,  33,  48, 63,
                                     64, 65, 127, 128, 129, 255, 256, 1025};
  for (const auto& kernel : wsc2_kernels::available_kernels()) {
    for (const std::size_t words : word_counts) {
      for (const std::size_t offset : {0u, 1u, 3u}) {
        std::vector<std::uint8_t> buf(words * 4 + offset);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
        const std::uint8_t* base = buf.data() + offset;
        const auto want = wsc2_kernels::run_scalar(base, words);
        const auto got = kernel.fn(base, words);
        ASSERT_EQ(got.x, want.x)
            << kernel.name << " words=" << words << " off=" << offset;
        ASSERT_EQ(got.h, want.h)
            << kernel.name << " words=" << words << " off=" << offset;
      }
    }
  }
}

TEST(Wsc2, DispatchedKernelIsListed) {
  // Whatever dispatch() picked must be one of the advertised kernels,
  // and the selected name must round-trip through the registry.
  const wsc2_kernels::KernelFn fn = wsc2_kernels::dispatch();
  bool found = false;
  for (const auto& k : wsc2_kernels::available_kernels()) {
    if (k.fn == fn) {
      found = true;
      EXPECT_STREQ(wsc2_kernels::selected_kernel_name(), k.name);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Wsc2, ResetClears) {
  Wsc2Accumulator acc;
  acc.add_symbol(3, 99);
  acc.reset();
  EXPECT_EQ(acc.value(), (Wsc2Code{0, 0}));
}

}  // namespace
}  // namespace chunknet
