#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "hash/kwise_kernels.h"
#include "hash/rng.h"
#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"
#include "sketch/l2_sampler.h"
#include "sketch/median_of_means.h"
#include "sketch/reservoir.h"
#include "util/serialize.h"

namespace cyclestream {
namespace {

// Serialized state bytes — the strongest equality on a sketch: identical
// bytes mean identical counters bit for bit.
template <typename Sketch>
std::string StateBytes(const Sketch& sketch) {
  StateWriter w;
  sketch.SaveState(w);
  return w.str();
}

std::vector<std::uint64_t> UpdateKeys(std::size_t count, std::uint64_t seed) {
  std::vector<std::uint64_t> keys(count);
  std::uint64_t s = seed;
  for (auto& k : keys) k = SplitMix64(s) % 997;  // Repeated keys.
  return keys;
}

TEST(MedianOfMeansTest, SingleGroupIsMean) {
  EXPECT_DOUBLE_EQ(MedianOfMeans({1.0, 2.0, 3.0, 4.0}, 1), 2.5);
}

TEST(MedianOfMeansTest, MedianKillsOutlierGroup) {
  // Three groups of two: means 1, 2, 1000 -> median 2.
  EXPECT_DOUBLE_EQ(MedianOfMeans({1.0, 1.0, 2.0, 2.0, 1000.0, 1000.0}, 3),
                   2.0);
}

TEST(AmsF2Test, ExactOnPointMass) {
  AmsF2 sketch(5, 40, 1);
  sketch.Update(123, 7.0);
  // A single coordinate: every basic estimator returns exactly 49.
  EXPECT_NEAR(sketch.Estimate(), 49.0, 1e-9);
}

TEST(AmsF2Test, ApproximatesF2OfRandomVector) {
  Rng rng(2);
  std::map<std::uint64_t, double> x;
  for (int i = 0; i < 500; ++i) {
    x[static_cast<std::uint64_t>(i)] = static_cast<double>(rng.UniformInt(9)) + 1.0;
  }
  double f2 = 0.0;
  AmsF2 sketch(9, 200, 3);
  for (const auto& [key, value] : x) {
    sketch.Update(key, value);
    f2 += value * value;
  }
  EXPECT_NEAR(sketch.Estimate(), f2, 0.25 * f2);
}

TEST(AmsF2Test, TurnstileDeletesCancel) {
  AmsF2 sketch(5, 20, 4);
  for (int i = 0; i < 100; ++i) sketch.Update(i, 5.0);
  for (int i = 0; i < 100; ++i) sketch.Update(i, -5.0);
  EXPECT_NEAR(sketch.Estimate(), 0.0, 1e-9);
}

TEST(AmsF2Test, UnbiasednessOverSeeds) {
  // Average many independent single-estimator sketches of a known vector.
  std::map<std::uint64_t, double> x = {{1, 3.0}, {2, -4.0}, {3, 1.0}};
  const double f2 = 9.0 + 16.0 + 1.0;
  double total = 0.0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    AmsF2 sketch(1, 1, 100 + static_cast<std::uint64_t>(t));
    for (const auto& [key, value] : x) sketch.Update(key, value);
    total += sketch.Estimate();
  }
  EXPECT_NEAR(total / trials, f2, 0.1 * f2);
}

TEST(CountSketchTest, PointQueriesOnSparseVector) {
  CountSketch sketch(5, 256, 7);
  sketch.Update(10, 100.0);
  sketch.Update(20, -50.0);
  sketch.Update(30, 25.0);
  EXPECT_NEAR(sketch.Query(10), 100.0, 1e-9);
  EXPECT_NEAR(sketch.Query(20), -50.0, 1e-9);
  EXPECT_NEAR(sketch.Query(99), 0.0, 1e-9);
}

TEST(CountSketchTest, HeavyHitterSurvivesNoise) {
  Rng rng(8);
  CountSketch sketch(7, 512, 9);
  sketch.Update(424242, 1000.0);
  for (int i = 0; i < 2000; ++i) {
    sketch.Update(static_cast<std::uint64_t>(i), 1.0);
  }
  EXPECT_NEAR(sketch.Query(424242), 1000.0, 100.0);
}

TEST(CountSketchTest, TurnstileDeletesCancel) {
  CountSketch sketch(5, 128, 10);
  sketch.Update(5, 10.0);
  sketch.Update(5, -10.0);
  EXPECT_NEAR(sketch.Query(5), 0.0, 1e-9);
}

TEST(ReservoirTest, KeepsEverythingUnderCapacity) {
  Reservoir<int> res(10, Rng(11));
  for (int i = 0; i < 7; ++i) res.Add(i);
  EXPECT_EQ(res.items().size(), 7u);
}

TEST(ReservoirTest, CapacityNeverExceeded) {
  Reservoir<int> res(10, Rng(12));
  for (int i = 0; i < 1000; ++i) res.Add(i);
  EXPECT_EQ(res.items().size(), 10u);
  EXPECT_EQ(res.seen(), 1000u);
}

TEST(ReservoirTest, InclusionProbabilityIsUniform) {
  // Each of 50 items should survive in a size-10 reservoir w.p. 1/5.
  std::vector<int> hits(50, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    Reservoir<int> res(10, Rng(100 + t));
    for (int i = 0; i < 50; ++i) res.Add(i);
    for (int kept : res.items()) ++hits[kept];
  }
  for (int h : hits) {
    EXPECT_NEAR(h / static_cast<double>(trials), 0.2, 0.02);
  }
}

TEST(L2SamplerTest, FindsDominantCoordinate) {
  L2Sampler::Config config;
  config.copies = 32;
  config.sketch_width = 256;
  L2Sampler sampler(config, 13);
  sampler.Update(777, 100.0);  // Dominant: x² fraction ≈ 10000/10900.
  for (int i = 0; i < 100; ++i) {
    sampler.Update(static_cast<std::uint64_t>(i), 3.0);
  }
  const auto sample = sampler.Draw();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->key, 777u);
  EXPECT_NEAR(sample->value_estimate, 100.0, 25.0);
}

TEST(L2SamplerTest, F2EstimateIsSane) {
  L2Sampler::Config config;
  config.copies = 8;
  L2Sampler sampler(config, 14);
  double f2 = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double v = (i % 5) + 1.0;
    sampler.Update(static_cast<std::uint64_t>(i), v);
    f2 += v * v;
  }
  EXPECT_NEAR(sampler.EstimateF2(), f2, 0.3 * f2);
}

TEST(L2SamplerTest, SamplingDistributionTracksSquaredMass) {
  // Vector with x_a = 8, x_b = 4, many unit coordinates: over many sampler
  // instantiations, a should be drawn ≈ 4× as often as b.
  int count_a = 0, count_b = 0, total = 0;
  for (int t = 0; t < 400; ++t) {
    L2Sampler::Config config;
    config.copies = 8;
    config.sketch_width = 128;
    L2Sampler sampler(config, 500 + static_cast<std::uint64_t>(t));
    sampler.Update(1000001, 8.0);
    sampler.Update(1000002, 4.0);
    for (int i = 0; i < 40; ++i) {
      sampler.Update(static_cast<std::uint64_t>(i), 1.0);
    }
    for (const auto& s : sampler.DrawAll()) {
      ++total;
      if (s.key == 1000001u) ++count_a;
      if (s.key == 1000002u) ++count_b;
    }
  }
  ASSERT_GT(total, 50);
  // P[a]/P[b] should be near 64/16 = 4 (loose tolerance: this is a
  // statistical property of an approximate sampler).
  ASSERT_GT(count_b, 0);
  const double ratio = static_cast<double>(count_a) / count_b;
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 9.0);
}

// ---------------------------------------------------------------------------
// Block-update equivalence: UpdateBlock must leave the sketch in a state that
// is bit-identical (serialized bytes) to the same keys fed one at a time.
// ---------------------------------------------------------------------------

TEST(SketchBlockTest, AmsF2UpdateBlockMatchesPerKey) {
  for (std::size_t block : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                            std::size_t{1000}}) {
    const auto keys = UpdateKeys(2048, 0xB10C + block);
    AmsF2 per_key(7, 96, 21);
    AmsF2 blocked(7, 96, 21);
    for (std::uint64_t k : keys) per_key.Update(k, 1.0);
    std::span<const std::uint64_t> rest(keys);
    while (!rest.empty()) {
      const std::size_t n = std::min(block, rest.size());
      blocked.UpdateBlock(rest.subspan(0, n), 1.0);
      rest = rest.subspan(n);
    }
    EXPECT_EQ(StateBytes(per_key), StateBytes(blocked)) << "block=" << block;
    EXPECT_EQ(per_key.Estimate(), blocked.Estimate()) << "block=" << block;
  }
}

TEST(SketchBlockTest, CountSketchUpdateBlockMatchesPerKey) {
  // Both a power-of-two width (mask path) and a non-power width (mod path).
  for (std::size_t width : {std::size_t{512}, std::size_t{100}}) {
    for (double delta : {1.0, -3.0}) {
      const auto keys = UpdateKeys(1536, 0xC5 + width);
      CountSketch per_key(5, width, 33);
      CountSketch blocked(5, width, 33);
      for (std::uint64_t k : keys) per_key.Update(k, delta);
      // Deliberately ragged block sizes (not divisible by any lane width).
      std::span<const std::uint64_t> rest(keys);
      std::size_t step = 1;
      while (!rest.empty()) {
        const std::size_t n = std::min(step, rest.size());
        blocked.UpdateBlock(rest.subspan(0, n), delta);
        rest = rest.subspan(n);
        step = step * 2 + 1;  // 1, 3, 7, 15, ...
      }
      EXPECT_EQ(StateBytes(per_key), StateBytes(blocked))
          << "width=" << width << " delta=" << delta;
      EXPECT_EQ(per_key.Query(keys[0]), blocked.Query(keys[0]));
    }
  }
}

TEST(SketchBlockTest, L2SamplerUpdateBlockMatchesPerKey) {
  L2Sampler::Config config;
  config.copies = 8;
  config.sketch_width = 128;
  const auto keys = UpdateKeys(800, 0x12);
  L2Sampler per_key(config, 44);
  L2Sampler blocked(config, 44);
  for (std::uint64_t k : keys) per_key.Update(k, 1.0);
  std::span<const std::uint64_t> rest(keys);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(37, rest.size());
    blocked.UpdateBlock(rest.subspan(0, n), 1.0);
    rest = rest.subspan(n);
  }
  EXPECT_EQ(StateBytes(per_key), StateBytes(blocked));
  EXPECT_EQ(per_key.EstimateF2(), blocked.EstimateF2());
  const auto a = per_key.Draw();
  const auto b = blocked.Draw();
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a.has_value()) {
    EXPECT_EQ(a->key, b->key);
    EXPECT_EQ(a->value_estimate, b->value_estimate);
  }
}

TEST(SketchBlockTest, EmptyBlockIsANoOp) {
  AmsF2 ams(5, 40, 1);
  CountSketch cs(5, 128, 2);
  L2Sampler::Config config;
  L2Sampler sampler(config, 3);
  const std::string ams_before = StateBytes(ams);
  const std::string cs_before = StateBytes(cs);
  const std::string sampler_before = StateBytes(sampler);
  ams.UpdateBlock({}, 1.0);
  cs.UpdateBlock({}, 1.0);
  sampler.UpdateBlock({}, 1.0);
  EXPECT_EQ(StateBytes(ams), ams_before);
  EXPECT_EQ(StateBytes(cs), cs_before);
  EXPECT_EQ(StateBytes(sampler), sampler_before);
}

TEST(SketchBlockTest, BlockPathBitIdenticalAcrossSimdTiers) {
  // Same key sequence through the forced-scalar kernels and through the
  // auto-dispatched (AVX2/AVX-512 when available) kernels: serialized sketch
  // state must agree byte for byte.
  const auto keys = UpdateKeys(4096, 0x51D);
  const SketchSimdMode saved = GetSketchSimdMode();
  SetSketchSimdMode(SketchSimdMode::kScalar);
  AmsF2 scalar_ams(7, 96, 5);
  CountSketch scalar_cs(5, 100, 6);
  scalar_ams.UpdateBlock(keys, 1.0);
  scalar_cs.UpdateBlock(keys, -2.0);
  SetSketchSimdMode(SketchSimdMode::kAuto);
  AmsF2 auto_ams(7, 96, 5);
  CountSketch auto_cs(5, 100, 6);
  auto_ams.UpdateBlock(keys, 1.0);
  auto_cs.UpdateBlock(keys, -2.0);
  SetSketchSimdMode(saved);
  EXPECT_EQ(StateBytes(scalar_ams), StateBytes(auto_ams));
  EXPECT_EQ(StateBytes(scalar_cs), StateBytes(auto_cs));
}

}  // namespace
}  // namespace cyclestream
