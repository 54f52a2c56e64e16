// Bit-identity tests for the batched hash bank (hash/kwise_bank.h) against
// the scalar KWiseHash reference, and for the sketches rebuilt on top of it
// (AmsF2, CountSketch) against hand-rolled scalar formulations. These are
// the enforcement half of the bank's "bit-identical contract": the SoA
// layout and lazy Mersenne reduction are pure implementation details and
// must never change a single output bit.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "hash/kwise.h"
#include "hash/kwise_bank.h"
#include "hash/kwise_kernels.h"
#include "hash/rng.h"
#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"
#include "sketch/median_of_means.h"
#include "util/serialize.h"

namespace cyclestream {
namespace {

constexpr std::uint64_t kP = KWiseHash::kPrime;

// Keys that exercise the input reduction: zero, small, just below/at/above
// the prime, and full-width values where x mod p differs from x.
std::vector<std::uint64_t> ProbeKeys() {
  std::vector<std::uint64_t> keys = {0,     1,          2,       41,
                                     kP - 1, kP,        kP + 5,  1ULL << 62,
                                     ~0ULL, ~0ULL - 17, 0xDEADBEEFCAFEBABEULL};
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 64; ++i) keys.push_back(SplitMix64(s));
  return keys;
}

std::vector<std::uint64_t> MakeSeeds(std::size_t n, std::uint64_t base) {
  std::vector<std::uint64_t> seeds(n);
  std::uint64_t s = base;
  for (std::size_t i = 0; i < n; ++i) seeds[i] = SplitMix64(s);
  return seeds;
}

TEST(KWiseHashBankTest, EvalAllBitIdenticalToScalar) {
  const auto keys = ProbeKeys();
  for (int k : {2, 4, 8}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{128}}) {
      const auto seeds = MakeSeeds(n, 0xABCDEF01ULL * k + n);
      const KWiseHashBank bank(k, seeds);
      std::vector<KWiseHash> scalar;
      scalar.reserve(n);
      for (std::size_t i = 0; i < n; ++i) scalar.emplace_back(k, seeds[i]);

      std::vector<std::uint64_t> out(n);
      for (std::uint64_t x : keys) {
        bank.EvalAll(x, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], scalar[i](x))
              << "k=" << k << " n=" << n << " i=" << i << " x=" << x;
          ASSERT_EQ(bank.Eval(i, x), scalar[i](x));
        }
      }
    }
  }
}

TEST(KWiseHashBankTest, SignTableBitIdenticalToScalar) {
  // Every entry of the forward-difference table against the scalar Horner
  // sign, including tables shorter than the k seed rows.
  for (int k : {2, 4, 6, 8}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{128},
                          std::size_t{450}}) {
      const auto seeds = MakeSeeds(n, 0x5151ULL + 31 * k + n);
      const KWiseHashBank bank(k, seeds);
      std::vector<KWiseHash> scalar;
      for (std::size_t i = 0; i < n; ++i) scalar.emplace_back(k, seeds[i]);

      const auto uk = static_cast<std::size_t>(k);
      for (std::size_t keys : {std::size_t{0}, std::size_t{1}, uk - 1, uk,
                               std::size_t{2000}}) {
        // One guard entry past the table catches an overrun.
        std::vector<signed char> table(keys * n + 1, 0);
        bank.SignTable(keys, table.data());
        ASSERT_EQ(table[keys * n], 0) << "k=" << k << " n=" << n;
        for (std::size_t x = 0; x < keys; ++x) {
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(static_cast<int>(table[x * n + i]), scalar[i].Sign(x))
                << "k=" << k << " n=" << n << " keys=" << keys << " i=" << i
                << " x=" << x;
          }
        }
      }
    }
  }
}

TEST(KWiseHashBankTest, ToUnitAllBitIdenticalToScalar) {
  const auto keys = ProbeKeys();
  for (int k : {2, 8}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{128}}) {
      const auto seeds = MakeSeeds(n, 0x7777ULL + 13 * k + n);
      const KWiseHashBank bank(k, seeds);
      std::vector<KWiseHash> scalar;
      for (std::size_t i = 0; i < n; ++i) scalar.emplace_back(k, seeds[i]);

      std::vector<double> units(n);
      for (std::uint64_t x : keys) {
        bank.ToUnitAll(x, units.data());
        for (std::size_t i = 0; i < n; ++i) {
          // Bit-level equality of doubles, not approximate.
          ASSERT_EQ(units[i], scalar[i].ToUnit(x));
          ASSERT_EQ(bank.ToUnit(i, x), scalar[i].ToUnit(x));
        }
      }
    }
  }
}

TEST(KWiseHashBankTest, AccumulateSignedMatchesScalarUpdateLoop) {
  // Both the k = 4 fused fast path and the general-k tile path must produce
  // exactly the floating-point sums a scalar per-copy loop produces.
  const auto keys = ProbeKeys();
  for (int k : {4, 6}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{128}}) {
      const auto seeds = MakeSeeds(n, 0x4242ULL + 7 * k + n);
      const KWiseHashBank bank(k, seeds);
      std::vector<KWiseHash> scalar;
      for (std::size_t i = 0; i < n; ++i) scalar.emplace_back(k, seeds[i]);

      std::vector<double> banked(n, 0.0), reference(n, 0.0);
      double delta = 1.0;
      for (std::uint64_t x : keys) {
        bank.AccumulateSigned(x, delta, banked.data());
        for (std::size_t i = 0; i < n; ++i) {
          reference[i] += scalar[i].Sign(x) > 0 ? delta : -delta;
        }
        delta = -delta * 1.25;  // Exercise negative and non-unit deltas.
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(banked[i], reference[i]) << "k=" << k << " n=" << n;
      }
    }
  }
}

TEST(KWiseHashBankTest, CoefficientDerivationMatchesScalarSpace) {
  // SpaceWords must equal the sum over members of the scalar accounting.
  const auto seeds = MakeSeeds(17, 99);
  const KWiseHashBank bank(5, seeds);
  EXPECT_EQ(bank.SpaceWords(), 17u * 5u);
  EXPECT_EQ(bank.size(), 17u);
  EXPECT_EQ(bank.k(), 5);
}

// ---------------------------------------------------------------------------
// Block-kernel equivalence matrix: every SIMD tier × block size × bank shape
// must be bit-identical to the per-key reference paths. SketchSimdMode is
// process-global, so each test restores kAuto on exit.

class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SketchSimdMode mode) : saved_(GetSketchSimdMode()) {
    SetSketchSimdMode(mode);
  }
  ~ScopedSimdMode() { SetSketchSimdMode(saved_); }

 private:
  SketchSimdMode saved_;
};

const std::vector<SketchSimdMode>& TierMatrix() {
  // kAvx2 / kAuto silently fall back to scalar on machines without the ISA,
  // so the matrix is safe (if redundant) everywhere.
  static const std::vector<SketchSimdMode> kModes = {
      SketchSimdMode::kScalar, SketchSimdMode::kAvx2, SketchSimdMode::kAuto};
  return kModes;
}

std::vector<std::uint64_t> BlockKeys(std::size_t count, std::uint64_t seed) {
  std::vector<std::uint64_t> keys = ProbeKeys();
  std::uint64_t s = seed;
  while (keys.size() < count) keys.push_back(SplitMix64(s));
  keys.resize(count);
  return keys;
}

TEST(KWiseBankBlockTest, EvalBlockBitIdenticalAcrossTiersAndShapes) {
  for (SketchSimdMode mode : TierMatrix()) {
    ScopedSimdMode scoped(mode);
    for (int k : {1, 2, 3, 4, 6}) {
      for (std::size_t n : {std::size_t{5}, std::size_t{16}, std::size_t{129}}) {
        const auto seeds = MakeSeeds(n, 0xB10CULL + 17 * k + n);
        const KWiseHashBank bank(k, seeds);
        for (std::size_t block : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}, std::size_t{4096}}) {
          const auto keys = BlockKeys(block, 0xC0FFEEULL + block);
          std::vector<std::uint64_t> got(block * n, ~0ULL);
          bank.EvalBlock(keys, got.data());
          std::vector<std::uint64_t> want(n);
          for (std::size_t b = 0; b < block; ++b) {
            bank.EvalAll(keys[b], want.data());
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(got[b * n + i], want[i])
                  << "tier=" << ActiveSketchKernels() << " k=" << k
                  << " n=" << n << " block=" << block << " b=" << b
                  << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(KWiseBankBlockTest, AccumulateSignedBlockBitIdenticalAcrossTiers) {
  for (SketchSimdMode mode : TierMatrix()) {
    ScopedSimdMode scoped(mode);
    for (int k : {2, 4, 6}) {
      for (std::size_t n : {std::size_t{5}, std::size_t{16}, std::size_t{129},
                            std::size_t{1152}}) {
        const auto seeds = MakeSeeds(n, 0xACC0ULL + 5 * k + n);
        const KWiseHashBank bank(k, seeds);
        for (std::size_t block : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}, std::size_t{4096}}) {
          const auto keys = BlockKeys(block, 0xFEEDULL + block);
          std::vector<double> got(n, 0.0), want(n, 0.0);
          const double delta = (block % 2) ? 1.0 : -0.75;
          bank.AccumulateSignedBlock(keys, delta, got.data());
          for (std::uint64_t key : keys) {
            bank.AccumulateSigned(key, delta, want.data());
          }
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(got[i], want[i])
                << "tier=" << ActiveSketchKernels() << " k=" << k << " n=" << n
                << " block=" << block << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(KWiseBankBlockTest, EmptyBlocksAreNoOps) {
  const auto seeds = MakeSeeds(9, 0xE117ULL);
  const KWiseHashBank bank(4, seeds);
  std::vector<double> counters(9, 3.5);
  bank.AccumulateSignedBlock({}, 2.0, counters.data());
  for (double c : counters) EXPECT_EQ(c, 3.5);
  bank.EvalBlock({}, nullptr);  // Must not touch the null output.
  const KWiseHashBank empty;
  std::vector<std::uint64_t> keys = {1, 2, 3};
  empty.AccumulateSignedBlock(keys, 1.0, counters.data());
  empty.EvalBlock(keys, nullptr);
  for (double c : counters) EXPECT_EQ(c, 3.5);
}

TEST(KWiseBankBlockTest, RestoredBankBlockPathsMatchConstructed) {
  // A bank adopted via RestoreState must rebuild its derived split tables:
  // block results have to match the originally constructed bank even when
  // the tables were warm before restore.
  const auto seeds = MakeSeeds(16, 0x2E57ULL);
  const KWiseHashBank bank(4, seeds);
  const auto keys = BlockKeys(64, 0x2E58ULL);
  std::vector<double> want(16, 0.0);
  bank.AccumulateSignedBlock(keys, 1.0, want.data());

  StateWriter w;
  bank.SaveState(w);

  KWiseHashBank restored;
  StateReader r1(w.str());
  ASSERT_TRUE(restored.RestoreState(r1));
  std::vector<double> got(16, 0.0);
  restored.AccumulateSignedBlock(keys, 1.0, got.data());
  for (std::size_t i = 0; i < 16; ++i) ASSERT_EQ(got[i], want[i]);
}

// ---------------------------------------------------------------------------
// Sketch-level golden tests: the rebuilt sketches must equal a from-scratch
// scalar formulation that replicates the historical seed chains.

TEST(AmsF2GoldenTest, MatchesScalarFormulationBitExactly) {
  const std::size_t groups = 5, per_group = 6;
  const std::uint64_t seed = 0xF00DULL;
  AmsF2 sketch(groups, per_group, seed);

  // Scalar reference: same seed chain (one SplitMix64 draw per estimator),
  // one 4-wise sign hash and one running sum Z per estimator.
  const std::size_t total = groups * per_group;
  const auto seeds = MakeSeeds(total, seed);
  std::vector<KWiseHash> signs;
  for (std::size_t i = 0; i < total; ++i) signs.emplace_back(4, seeds[i]);
  std::vector<double> z(total, 0.0);

  std::uint64_t s = 123;
  for (int step = 0; step < 500; ++step) {
    const std::uint64_t key = SplitMix64(s) % 97;  // Repeated keys.
    const double delta = (step % 5 == 0) ? -1.0 : 1.0;
    sketch.Update(key, delta);
    for (std::size_t i = 0; i < total; ++i) {
      z[i] += signs[i].Sign(key) > 0 ? delta : -delta;
    }
  }

  std::vector<double> squares(total);
  for (std::size_t i = 0; i < total; ++i) squares[i] = z[i] * z[i];
  EXPECT_EQ(sketch.Estimate(), MedianOfMeans(squares, groups));
}

TEST(CountSketchGoldenTest, MatchesScalarFormulationBitExactly) {
  for (std::size_t width : {512u, 100u}) {  // Power-of-two mask and modulo.
    const std::size_t depth = 5;
    const std::uint64_t seed = 0xBEEFULL + width;
    CountSketch sketch(depth, width, seed);

    // Scalar reference replicating the interleaved per-row seed chain.
    std::uint64_t s = seed;
    std::vector<KWiseHash> buckets, row_signs;
    for (std::size_t r = 0; r < depth; ++r) {
      buckets.emplace_back(2, SplitMix64(s));
      row_signs.emplace_back(4, SplitMix64(s));
    }
    std::vector<double> table(depth * width, 0.0);

    std::uint64_t keystate = 7;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t key = SplitMix64(keystate) % 61;
      const double delta = (step % 3 == 0) ? -2.5 : 1.0;
      sketch.Update(key, delta);
      for (std::size_t r = 0; r < depth; ++r) {
        const std::uint64_t b = buckets[r](key) % width;
        table[r * width + b] += row_signs[r].Sign(key) > 0 ? delta : -delta;
      }
    }

    // Every key estimate must match the reference median computation.
    for (std::uint64_t key = 0; key < 61; ++key) {
      std::vector<double> rows(depth);
      for (std::size_t r = 0; r < depth; ++r) {
        const double cell = table[r * width + buckets[r](key) % width];
        rows[r] = row_signs[r].Sign(key) > 0 ? cell : -cell;
      }
      std::nth_element(rows.begin(), rows.begin() + rows.size() / 2,
                       rows.end());
      ASSERT_EQ(sketch.Query(key), rows[rows.size() / 2])
          << "width=" << width << " key=" << key;
    }
  }
}

TEST(CountSketchGoldenTest, UpdateAndQueryEqualsUpdateThenQuery) {
  CountSketch a(5, 512, 42);
  CountSketch b(5, 512, 42);
  std::uint64_t s = 9;
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t key = SplitMix64(s) % 40;
    const double delta = (step & 1) ? 1.5 : -0.5;
    const double qa = a.UpdateAndQuery(key, delta);
    b.Update(key, delta);
    ASSERT_EQ(qa, b.Query(key));
  }
}

}  // namespace
}  // namespace cyclestream
