#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/arb_f2_counter.h"
#include "core/turnstile_f2.h"
#include "engine/broker.h"
#include "engine/query.h"
#include "engine/spec.h"
#include "gen/generators.h"
#include "graph/binary_io.h"
#include "hash/rng.h"
#include "stream/driver.h"
#include "stream/dynamic/turnstile.h"
#include "stream/dynamic/turnstile_io.h"
#include "stream/fault.h"
#include "stream/order.h"
#include "stream/window/window.h"
#include "tests/test_util.h"
#include "util/crc32.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace cyclestream {
namespace {

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Recomputes the header CRC over the (possibly patched) payload so a test
// can violate exactly one validation rule at a time.
void FixupCrc(std::string* bytes) {
  const std::uint32_t crc =
      Crc32(std::string_view(*bytes).substr(kTurnstileHeaderSize));
  std::memcpy(bytes->data() + 24, &crc, 4);
}

TurnstileStream SampleStream() {
  TurnstileStream s;
  s.emplace_back(Edge(0, 1), TurnstileOp::kInsert);
  s.emplace_back(Edge(1, 2), TurnstileOp::kInsert);
  s.emplace_back(Edge(0, 2), TurnstileOp::kInsert);
  s.emplace_back(Edge(1, 2), TurnstileOp::kDelete);
  s.emplace_back(Edge(1, 3), TurnstileOp::kInsert);
  return s;
}

TEST(TurnstileIoTest, RoundTripPreservesStream) {
  const std::string dir = MakeTempDir("turnstile_roundtrip");
  const std::string path = dir + "/s.bin";
  const TurnstileStream original = SampleStream();
  std::string error;
  ASSERT_TRUE(WriteTurnstileStream(original, 4, path, &error)) << error;

  TurnstileBinaryReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  EXPECT_EQ(reader.num_vertices(), 4u);
  EXPECT_EQ(reader.format_version(), kBinaryTurnstileVersion);
  EXPECT_EQ(reader.stream(), original);
}

TEST(TurnstileIoTest, SniffReportsVersions) {
  const std::string dir = MakeTempDir("turnstile_sniff");
  const std::string v2 = dir + "/v2.bin";
  ASSERT_TRUE(WriteTurnstileStream(SampleStream(), 4, v2));
  EXPECT_EQ(SniffBinaryFormatVersion(v2), kBinaryTurnstileVersion);

  const std::string v1 = dir + "/v1.bin";
  const std::vector<Edge> edges = {Edge(0, 1), Edge(1, 2)};
  ASSERT_TRUE(WriteBinaryEdgeStream(edges.data(), edges.size(), 3, v1));
  EXPECT_EQ(SniffBinaryFormatVersion(v1), kBinaryEdgeVersion);

  const std::string junk = dir + "/junk.bin";
  WriteFileBytes(junk, "not a cyclestream file");
  EXPECT_EQ(SniffBinaryFormatVersion(junk), 0u);
  EXPECT_EQ(SniffBinaryFormatVersion(dir + "/missing.bin"), 0u);
}

// Each reader must name the other's format instead of misparsing it.
TEST(TurnstileIoTest, ReadersRejectTheOtherVersionWithPointedErrors) {
  const std::string dir = MakeTempDir("turnstile_cross_version");
  const std::string v2 = dir + "/v2.bin";
  ASSERT_TRUE(WriteTurnstileStream(SampleStream(), 4, v2));
  const std::string v1 = dir + "/v1.bin";
  const std::vector<Edge> edges = {Edge(0, 1), Edge(1, 2)};
  ASSERT_TRUE(WriteBinaryEdgeStream(edges.data(), edges.size(), 3, v1));

  BinaryEdgeReader edge_reader;
  std::string error;
  EXPECT_FALSE(edge_reader.Open(v2, &error));
  EXPECT_NE(error.find("turnstile"), std::string::npos) << error;

  TurnstileBinaryReader turnstile_reader;
  error.clear();
  EXPECT_FALSE(turnstile_reader.Open(v1, &error));
  EXPECT_NE(error.find("insert-only"), std::string::npos) << error;
}

TEST(TurnstileIoTest, RejectsInvalidOpByte) {
  const std::string dir = MakeTempDir("turnstile_bad_op");
  const std::string path = dir + "/s.bin";
  ASSERT_TRUE(WriteTurnstileStream(SampleStream(), 4, path));
  std::string bytes = ReadFileBytes(path);
  // Second record's op byte; patch the CRC so only the op rule trips.
  bytes[kTurnstileHeaderSize + kTurnstileRecordSize] = 2;
  FixupCrc(&bytes);
  WriteFileBytes(path, bytes);

  TurnstileBinaryReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("op byte"), std::string::npos) << error;
}

TEST(TurnstileIoTest, RejectsCorruptPayloadTruncationAndConcatenation) {
  const std::string dir = MakeTempDir("turnstile_damage");
  const std::string path = dir + "/s.bin";
  ASSERT_TRUE(WriteTurnstileStream(SampleStream(), 4, path));
  const std::string good = ReadFileBytes(path);

  std::string error;
  {  // CRC catches payload corruption.
    std::string bad = good;
    bad[kTurnstileHeaderSize + 3] ^= 0x40;
    WriteFileBytes(path, bad);
    TurnstileBinaryReader reader;
    EXPECT_FALSE(reader.Open(path, &error));
  }
  {  // Exact-size check catches truncation...
    WriteFileBytes(path, good.substr(0, good.size() - 1));
    TurnstileBinaryReader reader;
    EXPECT_FALSE(reader.Open(path, &error));
  }
  {  // ...and concatenated streams (v2+v2 and v2+v1 alike).
    WriteFileBytes(path, good + good);
    TurnstileBinaryReader reader;
    EXPECT_FALSE(reader.Open(path, &error));
    EXPECT_NE(error.find("concatenated"), std::string::npos) << error;
  }
  {
    const std::string v1 = dir + "/v1.bin";
    const std::vector<Edge> edges = {Edge(0, 1)};
    ASSERT_TRUE(WriteBinaryEdgeStream(edges.data(), edges.size(), 2, v1));
    WriteFileBytes(path, good + ReadFileBytes(v1));
    TurnstileBinaryReader reader;
    EXPECT_FALSE(reader.Open(path, &error));
  }
}

TEST(TurnstileIoTest, StrictModeRejectsUnmatchedDelete) {
  const std::string dir = MakeTempDir("turnstile_unmatched");
  const std::string path = dir + "/s.bin";
  TurnstileStream s;
  s.emplace_back(Edge(0, 1), TurnstileOp::kInsert);
  s.emplace_back(Edge(1, 2), TurnstileOp::kDelete);  // Never inserted.
  ASSERT_TRUE(WriteTurnstileStream(s, 3, path));

  TurnstileBinaryReader strict;
  std::string error;
  EXPECT_FALSE(strict.Open(path, &error));
  EXPECT_NE(error.find("unmatched delete"), std::string::npos) << error;

  TurnstileBinaryReader lax;
  lax.set_strict(false);
  ASSERT_TRUE(lax.Open(path, &error)) << error;
  EXPECT_EQ(lax.stream(), s);
}

TEST(LiveEdgesTest, CountsMultiplicityAndPreservesFirstInsertionOrder) {
  TurnstileStream s;
  s.emplace_back(Edge(2, 3), TurnstileOp::kInsert);
  s.emplace_back(Edge(0, 1), TurnstileOp::kInsert);
  s.emplace_back(Edge(0, 1), TurnstileOp::kInsert);  // Multiplicity 2.
  s.emplace_back(Edge(2, 3), TurnstileOp::kDelete);
  s.emplace_back(Edge(0, 1), TurnstileOp::kDelete);  // Still live (1 left).
  s.emplace_back(Edge(4, 5), TurnstileOp::kDelete);  // Unmatched: clamped.
  s.emplace_back(Edge(2, 3), TurnstileOp::kInsert);  // Re-inserted.
  const std::vector<Edge> live = LiveEdges(s);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], Edge(2, 3));  // First-insertion order.
  EXPECT_EQ(live[1], Edge(0, 1));
}

TEST(TurnstileStreamTest, FingerprintIsSensitiveToOps) {
  const TurnstileStream a = SampleStream();
  TurnstileStream b = a;
  b[3].op = TurnstileOp::kInsert;  // Same edges, one op flipped.
  EXPECT_NE(FingerprintTurnstileStream(a), FingerprintTurnstileStream(b));
  const TurnstileStream inserts =
      TurnstileFromEdges(std::vector<Edge>{Edge(0, 1), Edge(1, 2)});
  EXPECT_NE(FingerprintTurnstileStream(a), FingerprintTurnstileStream(inserts));
}

ApproxConfig TestBase(std::uint64_t seed) {
  ApproxConfig base;
  base.epsilon = 0.3;
  base.c = 1.0;
  base.t_guess = 50.0;
  base.seed = seed;
  return base;
}

// On an insert-only stream the turnstile c4 wrapper must be bit-identical
// to the arb-f2 edge kind with the same Params — same seed chain, same
// update order, same accumulators.
TEST(TurnstileEquivalenceTest, InsertOnlyC4MatchesArbF2) {
  Rng gen_rng(11);
  const EdgeList graph = ErdosRenyiGnm(40, 160, gen_rng);
  EdgeStream edges = graph.edges();
  Rng order_rng(5);
  order_rng.Shuffle(edges);

  ArbF2FourCycleCounter::Params p;
  p.base = TestBase(21);
  p.num_vertices = graph.num_vertices();

  ArbF2FourCycleCounter reference(p);
  RunEdgeStream(reference, edges);

  TurnstileF2FourCycleCounter turnstile(p);
  RunTurnstileStream(turnstile, TurnstileFromEdges(edges));

  EXPECT_EQ(turnstile.Result().value, reference.Result().value);
}

// The headline cancellation contract: inserting A then B, then deleting B
// again, leaves estimates bit-identical to inserting A alone — for both
// turnstile kinds, at every thread count.
TEST(TurnstileCancellationTest, DeletesCancelExactlyAtAnyThreadCount) {
  Rng gen_rng(3);
  const EdgeList graph = ErdosRenyiGnm(50, 260, gen_rng);
  EdgeStream edges = graph.edges();
  Rng order_rng(9);
  order_rng.Shuffle(edges);
  const std::size_t half = edges.size() / 2;

  TurnstileStream cancelled = TurnstileFromEdges(edges);
  for (std::size_t i = edges.size(); i-- > half;) {
    cancelled.emplace_back(edges[i], TurnstileOp::kDelete);
  }
  const TurnstileStream insert_only = TurnstileFromEdges(
      std::span<const Edge>(edges.data(), half));

  const int saved_threads = DefaultThreads();
  for (int threads : {1, 8}) {
    SetDefaultThreads(threads);
    TurnstileF2TriangleCounter::Params tp;
    tp.base = TestBase(77);
    tp.num_vertices = graph.num_vertices();
    TurnstileF2TriangleCounter tri_cancelled(tp);
    RunTurnstileStream(tri_cancelled, cancelled);
    TurnstileF2TriangleCounter tri_inserts(tp);
    RunTurnstileStream(tri_inserts, insert_only);
    EXPECT_EQ(tri_cancelled.Result().value, tri_inserts.Result().value)
        << "triangle kind, threads=" << threads;

    TurnstileF2FourCycleCounter::Params cp;
    cp.base = TestBase(78);
    cp.num_vertices = graph.num_vertices();
    TurnstileF2FourCycleCounter c4_cancelled(cp);
    RunTurnstileStream(c4_cancelled, cancelled);
    TurnstileF2FourCycleCounter c4_inserts(cp);
    RunTurnstileStream(c4_inserts, insert_only);
    EXPECT_EQ(c4_cancelled.Result().value, c4_inserts.Result().value)
        << "c4 kind, threads=" << threads;
  }
  SetDefaultThreads(saved_threads);
}

// Full cancellation drives every estimate to the empty-graph value.
TEST(TurnstileCancellationTest, FullCancellationYieldsEmptyGraphEstimate) {
  const EdgeList graph = testing::Clique(8);
  TurnstileStream stream = TurnstileFromEdges(graph.edges());
  for (const Edge& e : graph.edges()) {
    stream.emplace_back(e, TurnstileOp::kDelete);
  }
  TurnstileF2TriangleCounter::Params p;
  p.base = TestBase(5);
  p.num_vertices = graph.num_vertices();
  TurnstileF2TriangleCounter alg(p);
  RunTurnstileStream(alg, stream);
  EXPECT_EQ(alg.Result().value, 0.0);
}

// ProcessUpdateBlock at any block size must leave exactly the state of
// per-update ProcessUpdate calls, for both turnstile kinds, on a stream
// with deletes.
template <typename Counter>
void ExpectBlockDeliveryMatchesPerUpdate(const typename Counter::Params& p,
                                         const TurnstileStream& stream) {
  Counter per_update(p);
  per_update.StartPass(0, stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    per_update.ProcessUpdate(0, stream[i], i);
  }
  per_update.EndPass(0);
  StateWriter golden;
  ASSERT_TRUE(per_update.SaveState(golden));

  for (const std::size_t block : {1, 7, 64}) {
    SCOPED_TRACE("block=" + std::to_string(block));
    Counter blocked(p);
    blocked.StartPass(0, stream.size());
    for (std::size_t i = 0; i < stream.size(); i += block) {
      const std::size_t n = std::min(block, stream.size() - i);
      blocked.ProcessUpdateBlock(
          0, std::span<const TurnstileUpdate>(stream.data() + i, n), i);
    }
    blocked.EndPass(0);
    EXPECT_EQ(blocked.Result().value, per_update.Result().value);
    EXPECT_EQ(blocked.Result().space_words, per_update.Result().space_words);
    StateWriter state;
    ASSERT_TRUE(blocked.SaveState(state));
    EXPECT_EQ(state.str(), golden.str());
  }
}

TEST(TurnstileBlockTest, BlockDeliveryMatchesPerUpdateAtAnyBlockSize) {
  Rng gen_rng(13);
  const EdgeList graph = ErdosRenyiGnm(40, 200, gen_rng);
  TurnstileStream stream = TurnstileFromEdges(graph.edges());
  for (std::size_t i = 0; i < graph.edges().size(); i += 3) {
    stream.emplace_back(graph.edges()[i], TurnstileOp::kDelete);
  }

  TurnstileF2TriangleCounter::Params tp;
  tp.base = TestBase(31);
  tp.num_vertices = graph.num_vertices();
  ExpectBlockDeliveryMatchesPerUpdate<TurnstileF2TriangleCounter>(tp, stream);

  TurnstileF2FourCycleCounter::Params cp;
  cp.base = TestBase(32);
  cp.num_vertices = graph.num_vertices();
  ExpectBlockDeliveryMatchesPerUpdate<TurnstileF2FourCycleCounter>(cp, stream);
}

template <typename Counter, typename Params>
TurnstileAlgorithmFactory FactoryOf(const Params& p) {
  return [p] { return std::make_unique<Counter>(p); };
}

// Decay needs the double-slot counter (its rescale leaves the integers).
template <typename Counter = TurnstileF2TriangleCounter>
TurnstileAlgorithmFactory TriangleFactory(VertexId n, std::uint64_t seed) {
  TurnstileF2TriangleParams p;
  p.base = TestBase(seed);
  p.num_vertices = n;
  return FactoryOf<Counter>(p);
}

// A window covering the whole stream (no bucket ever retired) folds back
// to exactly the unwindowed state — linearity in action.
TEST(WindowTest, WholeStreamWindowMatchesUnwindowed) {
  Rng gen_rng(17);
  const EdgeList graph = ErdosRenyiGnm(40, 160, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());

  auto factory = TriangleFactory(graph.num_vertices(), 101);
  std::unique_ptr<TurnstileStreamAlgorithm> plain = factory();
  RunTurnstileStream(*plain, stream);

  SlidingWindowAlgorithm windowed(factory, factory()->CheckpointId(),
                                  stream.size(), 4);
  ASSERT_EQ(stream.size() % 4, 0u) << "pick a stream length divisible by 4";
  RunTurnstileStream(windowed, stream);

  EXPECT_EQ(windowed.Result().value, plain->Result().value);
}

// The windowed estimate must equal a fresh instance replaying exactly the
// updates inside the live buckets — the suffix-replay oracle, on a stream
// three windows long (so retirement has happened repeatedly).
TEST(WindowTest, MatchesSuffixReplayOracle) {
  Rng gen_rng(23);
  const EdgeList graph = ErdosRenyiGnm(50, 240, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());
  const std::uint64_t kWindow = 80;
  const std::uint64_t kBuckets = 4;
  const std::uint64_t width = kWindow / kBuckets;

  auto factory = TriangleFactory(graph.num_vertices(), 55);
  SlidingWindowAlgorithm windowed(factory, factory()->CheckpointId(), kWindow,
                                  kBuckets);
  RunTurnstileStream(windowed, stream);

  // Live buckets after the run: the last position's bucket and its
  // kBuckets-1 predecessors.
  const std::uint64_t last_bucket = (stream.size() - 1) / width;
  const std::uint64_t first_live =
      last_bucket + 1 >= kBuckets ? (last_bucket + 1 - kBuckets) * width : 0;
  std::unique_ptr<TurnstileStreamAlgorithm> oracle = factory();
  const TurnstileStream suffix(stream.begin() + first_live, stream.end());
  RunTurnstileStream(*oracle, suffix);

  EXPECT_EQ(windowed.Result().value, oracle->Result().value);
}

// Bucket contents are fixed stream positions, so the estimate must not
// depend on how the driver batches updates into blocks.
TEST(WindowTest, BlockSizeInvariance) {
  Rng gen_rng(29);
  const EdgeList graph = ErdosRenyiGnm(40, 180, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());

  auto factory = TriangleFactory(graph.num_vertices(), 61);
  double reference = 0.0;
  bool have_reference = false;
  for (std::size_t block : {1, 3, 7, 64, 1024}) {
    SlidingWindowAlgorithm windowed(factory, factory()->CheckpointId(), 60, 3);
    windowed.StartPass(0, stream.size());
    for (std::size_t pos = 0; pos < stream.size(); pos += block) {
      const std::size_t n = std::min(block, stream.size() - pos);
      windowed.ProcessUpdateBlock(
          0, std::span<const TurnstileUpdate>(stream.data() + pos, n), pos);
    }
    windowed.EndPass(0);
    if (!have_reference) {
      reference = windowed.Result().value;
      have_reference = true;
    } else {
      EXPECT_EQ(windowed.Result().value, reference) << "block=" << block;
    }
  }
}

// Satellite (c): the checkpoint kill-point sweep for a windowed query.
// Kill + resume at every bucket boundary (and just off it) must reproduce
// the uninterrupted run's estimate bit-for-bit.
TEST(WindowCheckpointTest, KillPointSweepAtEveryBucketBoundary) {
  Rng gen_rng(41);
  const EdgeList graph = ErdosRenyiGnm(30, 120, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());
  const std::uint64_t kWindow = 40;
  const std::uint64_t kBuckets = 4;
  const std::uint64_t width = kWindow / kBuckets;

  auto factory = TriangleFactory(graph.num_vertices(), 71);
  SlidingWindowAlgorithm golden(factory, factory()->CheckpointId(), kWindow,
                                kBuckets);
  RunTurnstileStream(golden, stream);
  const double golden_value = golden.Result().value;

  const std::string dir = MakeTempDir("window_kill_sweep");
  std::vector<std::uint64_t> kill_points;
  for (std::uint64_t pos = width; pos < stream.size(); pos += width) {
    kill_points.push_back(pos);       // Exactly at a bucket boundary.
    kill_points.push_back(pos + 1);   // Just after (bucket freshly opened).
  }
  for (const std::uint64_t kill : kill_points) {
    CheckpointPolicy policy;
    policy.directory = dir;
    policy.every_elements = 1;
    FaultPlan faults;
    faults.KillAfterElements(kill);
    RunOptions kill_options;
    kill_options.checkpoint = &policy;
    kill_options.faults = &faults;
    SlidingWindowAlgorithm victim(factory, factory()->CheckpointId(), kWindow,
                                  kBuckets);
    const RunOutcome killed = RunTurnstileStream(victim, stream, kill_options);
    ASSERT_FALSE(killed.completed) << "kill point " << kill;
    ASSERT_FALSE(killed.checkpoint_path.empty()) << "kill point " << kill;

    SlidingWindowAlgorithm resumed(factory, factory()->CheckpointId(), kWindow,
                                   kBuckets);
    RunOptions resume_options;
    resume_options.resume_from = killed.checkpoint_path;
    const RunOutcome outcome =
        RunTurnstileStream(resumed, stream, resume_options);
    ASSERT_TRUE(outcome.completed);
    ASSERT_TRUE(outcome.resumed) << "kill point " << kill;
    EXPECT_EQ(resumed.Result().value, golden_value) << "kill point " << kill;
  }
}

// A snapshot from a different window geometry must be rejected, falling
// back to a from-scratch run that still matches the golden value.
TEST(WindowCheckpointTest, MismatchedWindowConfigRejectsResume) {
  Rng gen_rng(43);
  const EdgeList graph = ErdosRenyiGnm(30, 120, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());
  auto factory = TriangleFactory(graph.num_vertices(), 73);

  const std::string dir = MakeTempDir("window_mismatch");
  CheckpointPolicy policy;
  policy.directory = dir;
  policy.every_elements = 1;
  FaultPlan faults;
  faults.KillAfterElements(stream.size() / 2);
  RunOptions kill_options;
  kill_options.checkpoint = &policy;
  kill_options.faults = &faults;
  SlidingWindowAlgorithm victim(factory, factory()->CheckpointId(), 40, 4);
  const RunOutcome killed = RunTurnstileStream(victim, stream, kill_options);
  ASSERT_FALSE(killed.completed);

  SlidingWindowAlgorithm golden(factory, factory()->CheckpointId(), 40, 2);
  RunTurnstileStream(golden, stream);

  SlidingWindowAlgorithm other(factory, factory()->CheckpointId(), 40, 2);
  RunOptions options;
  options.resume_from = killed.checkpoint_path;
  const RunOutcome outcome = RunTurnstileStream(other, stream, options);
  EXPECT_TRUE(outcome.resume_rejected);
  EXPECT_FALSE(outcome.resumed);
  EXPECT_EQ(other.Result().value, golden.Result().value);
}

// Decay must equal the hand-driven oracle: process an epoch, rescale by
// 2^-k, process the next epoch — per the scheduled-rescale definition.
TEST(DecayTest, MatchesEpochBoundaryOracle) {
  Rng gen_rng(47);
  const EdgeList graph = ErdosRenyiGnm(40, 200, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());
  const std::uint64_t kEpoch = 64;
  const std::uint32_t kLog2 = 3;

  auto factory =
      TriangleFactory<DecayTurnstileF2TriangleCounter>(graph.num_vertices(), 81);
  DecayAlgorithm decayed(factory(), kEpoch, kLog2);
  RunTurnstileStream(decayed, stream);

  std::unique_ptr<TurnstileStreamAlgorithm> oracle = factory();
  oracle->StartPass(0, stream.size());
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    if (pos > 0 && pos % kEpoch == 0) {
      ASSERT_TRUE(oracle->Rescale(std::ldexp(1.0, -static_cast<int>(kLog2))));
    }
    oracle->ProcessUpdate(0, stream[pos], pos);
  }
  oracle->EndPass(0);

  EXPECT_EQ(decayed.Result().value, oracle->Result().value);
}

TEST(DecayTest, BlockSizeInvariance) {
  Rng gen_rng(53);
  const EdgeList graph = ErdosRenyiGnm(40, 200, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());

  auto factory =
      TriangleFactory<DecayTurnstileF2TriangleCounter>(graph.num_vertices(), 91);
  double reference = 0.0;
  bool have_reference = false;
  for (std::size_t block : {1, 5, 63, 64, 65, 512}) {
    DecayAlgorithm decayed(factory(), 64, 2);
    decayed.StartPass(0, stream.size());
    for (std::size_t pos = 0; pos < stream.size(); pos += block) {
      const std::size_t n = std::min(block, stream.size() - pos);
      decayed.ProcessUpdateBlock(
          0, std::span<const TurnstileUpdate>(stream.data() + pos, n), pos);
    }
    decayed.EndPass(0);
    if (!have_reference) {
      reference = decayed.Result().value;
      have_reference = true;
    } else {
      EXPECT_EQ(decayed.Result().value, reference) << "block=" << block;
    }
  }
}

// --- Integer slots against the double-slot oracle ------------------------

// A random insert/delete stream: the edges of a random graph inserted in
// shuffled order, each followed with probability 0.3 by the delete of a
// uniformly random live edge.
TurnstileStream RandomChurn(VertexId n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  EdgeStream edges = ErdosRenyiGnm(n, m, rng).edges();
  rng.Shuffle(edges);
  TurnstileStream stream;
  std::vector<Edge> live;
  for (const Edge& e : edges) {
    stream.emplace_back(e, TurnstileOp::kInsert);
    live.push_back(e);
    if (rng.Bernoulli(0.3)) {
      const auto i = static_cast<std::size_t>(rng.UniformInt(live.size()));
      std::swap(live[i], live.back());
      stream.emplace_back(live.back(), TurnstileOp::kDelete);
      live.pop_back();
    }
  }
  return stream;
}

// Positions [begin, end) of `stream` through a fresh `Counter`.
template <typename Counter, typename Params>
std::unique_ptr<Counter> RunSlice(const Params& p,
                                  const TurnstileStream& stream,
                                  std::size_t begin, std::size_t end) {
  auto counter = std::make_unique<Counter>(p);
  counter->StartPass(0, stream.size());
  counter->ProcessUpdateBlock(
      0, std::span<const TurnstileUpdate>(stream.data() + begin, end - begin),
      begin);
  counter->EndPass(0);
  return counter;
}

// The stream cut into `shards` contiguous slices, each run through a fresh
// `Counter` and folded in order into an empty one, as the shard
// coordinator and the window fold do.
template <typename Counter, typename Params>
Estimate ShardedResult(const Params& p, const TurnstileStream& stream,
                       std::size_t shards) {
  Counter merged(p);
  for (std::size_t w = 0; w < shards; ++w) {
    const auto slice = RunSlice<Counter>(p, stream, stream.size() * w / shards,
                                         stream.size() * (w + 1) / shards);
    EXPECT_TRUE(merged.MergeFrom(*slice));
  }
  return merged.Result();
}

// The double-slot counters (kept for decay) are the integer-slot counters
// with inexact-capable arithmetic: on random insert/delete streams the two
// give bit-identical Result()s, whole and after 1..8-way shard folds.
TEST(IntegerSlotOracleTest, MatchesDoubleSlotsAcrossShardFolds) {
  for (std::uint64_t seed : {5, 6, 7}) {
    const TurnstileStream stream = RandomChurn(60, 400, seed);
    ArbF2Params c4;
    c4.base = TestBase(seed + 10);
    c4.num_vertices = 60;
    TurnstileF2TriangleParams tri;
    tri.base = TestBase(seed + 20);
    tri.num_vertices = 60;
    for (std::size_t shards = 1; shards <= 8; ++shards) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(shards) + " shards");
      const Estimate c4_exact =
          ShardedResult<TurnstileF2FourCycleCounter>(c4, stream, shards);
      const Estimate c4_double =
          ShardedResult<DecayTurnstileF2FourCycleCounter>(c4, stream, shards);
      EXPECT_EQ(c4_exact.value, c4_double.value);
      EXPECT_EQ(c4_exact.space_words, c4_double.space_words);
      const Estimate tri_exact =
          ShardedResult<TurnstileF2TriangleCounter>(tri, stream, shards);
      const Estimate tri_double =
          ShardedResult<DecayTurnstileF2TriangleCounter>(tri, stream, shards);
      EXPECT_EQ(tri_exact.value, tri_double.value);
      EXPECT_EQ(tri_exact.space_words, tri_double.space_words);
    }
  }
}

// The stream cut into `shards` slices as ShardedResult does, but each slice
// travels as a SaveState blob folded by MergeState: the shard coordinator's
// path, on arb-f2 fed inserts and deletes.
template <typename Counter>
Estimate BlobMergedResult(const ArbF2Params& p, const TurnstileStream& stream,
                          std::size_t shards) {
  Counter merged(p);
  for (std::size_t w = 0; w < shards; ++w) {
    Counter slice(p);
    for (std::size_t i = stream.size() * w / shards;
         i < stream.size() * (w + 1) / shards; ++i) {
      if (stream[i].op == TurnstileOp::kInsert) {
        slice.Insert(stream[i].edge);
      } else {
        slice.Delete(stream[i].edge);
      }
    }
    StateWriter blob;
    EXPECT_TRUE(slice.SaveState(blob));
    StateReader r(blob.str());
    EXPECT_TRUE(merged.MergeState(r));
  }
  return merged.Result();
}

TEST(IntegerSlotOracleTest, BlobMergesMatchDoubleSlots) {
  const TurnstileStream stream = RandomChurn(60, 400, 11);
  ArbF2Params p;
  p.base = TestBase(12);
  p.num_vertices = 60;
  for (std::size_t shards = 1; shards <= 8; ++shards) {
    EXPECT_EQ(BlobMergedResult<ArbF2FourCycleCounter>(p, stream, shards).value,
              BlobMergedResult<DecayArbF2FourCycleCounter>(p, stream, shards)
                  .value)
        << shards << " shards";
  }
}

// Window estimates fold bucket-local sketches; the integer folds agree with
// the double-slot oracle at every bucket boundary and in between.
TEST(IntegerSlotOracleTest, WindowFoldsMatchDoubleSlots) {
  const TurnstileStream stream = RandomChurn(60, 400, 13);
  ArbF2Params c4;
  c4.base = TestBase(14);
  c4.num_vertices = 60;
  TurnstileF2TriangleParams tri;
  tri.base = TestBase(15);
  tri.num_vertices = 60;
  const TurnstileAlgorithmFactory factories[][2] = {
      {FactoryOf<TurnstileF2FourCycleCounter>(c4),
       FactoryOf<DecayTurnstileF2FourCycleCounter>(c4)},
      {FactoryOf<TurnstileF2TriangleCounter>(tri),
       FactoryOf<DecayTurnstileF2TriangleCounter>(tri)}};
  for (const auto& pair : factories) {
    SlidingWindowAlgorithm exact(pair[0], pair[0]()->CheckpointId(), 120, 4);
    SlidingWindowAlgorithm oracle(pair[1], pair[1]()->CheckpointId(), 120, 4);
    exact.StartPass(0, stream.size());
    oracle.StartPass(0, stream.size());
    for (std::size_t pos = 0; pos < stream.size(); ++pos) {
      exact.ProcessUpdate(0, stream[pos], pos);
      oracle.ProcessUpdate(0, stream[pos], pos);
      if (pos % 17 == 0 || pos + 1 == stream.size()) {
        ASSERT_EQ(exact.Result().value, oracle.Result().value)
            << exact.CheckpointId() << " at " << pos;
      }
    }
  }
}

// Integer and double slots have different layouts, so each rejects the
// other's snapshots by checkpoint id ("/2" vs "/1") and starts over.
TEST(IntegerSlotOracleTest, RejectsDoubleSlotSnapshotsByName) {
  const TurnstileStream stream = RandomChurn(40, 200, 17);
  TurnstileF2TriangleParams tri;
  tri.base = TestBase(18);
  tri.num_vertices = 40;
  ArbF2Params c4;
  c4.base = TestBase(19);
  c4.num_vertices = 40;
  const auto check = [&](TurnstileStreamAlgorithm& old_layout,
                         TurnstileStreamAlgorithm& golden,
                         TurnstileStreamAlgorithm& resumed) {
    const std::string dir = MakeTempDir(
        "slot_ids_" + std::string(old_layout.CheckpointId()).substr(0, 12));
    CheckpointPolicy policy;
    policy.directory = dir;
    policy.every_elements = 16;
    FaultPlan faults;
    faults.KillAfterElements(stream.size() / 2);
    RunOptions kill_options;
    kill_options.checkpoint = &policy;
    kill_options.faults = &faults;
    const RunOutcome killed =
        RunTurnstileStream(old_layout, stream, kill_options);
    ASSERT_FALSE(killed.completed);
    RunTurnstileStream(golden, stream);
    RunOptions options;
    options.resume_from = killed.checkpoint_path;
    ::testing::internal::CaptureStderr();
    const RunOutcome outcome = RunTurnstileStream(resumed, stream, options);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(outcome.resume_rejected);
    EXPECT_FALSE(outcome.resumed);
    EXPECT_NE(log.find("'" + std::string(old_layout.CheckpointId()) + "'"),
              std::string::npos)
        << log;
    EXPECT_EQ(resumed.Result().value, golden.Result().value);
  };
  DecayTurnstileF2TriangleCounter old_tri(tri);
  TurnstileF2TriangleCounter golden_tri(tri), resumed_tri(tri);
  EXPECT_EQ(old_tri.CheckpointId(), "turnstile-tri/1");
  EXPECT_EQ(resumed_tri.CheckpointId(), "turnstile-tri/2");
  check(old_tri, golden_tri, resumed_tri);
  DecayTurnstileF2FourCycleCounter old_c4(c4);
  TurnstileF2FourCycleCounter golden_c4(c4), resumed_c4(c4);
  EXPECT_EQ(old_c4.CheckpointId(), "turnstile-c4/1");
  EXPECT_EQ(resumed_c4.CheckpointId(), "turnstile-c4/2");
  check(old_c4, golden_c4, resumed_c4);
  EXPECT_EQ(DecayArbF2FourCycleCounter(c4).CheckpointId(), "arbf2/1");
  EXPECT_EQ(ArbF2FourCycleCounter(c4).CheckpointId(), "arbf2/2");
}

// The broker's turnstile path must be bit-identical to standalone runs and
// export the window/decay knobs into the per-query manifest sections.
TEST(EngineTurnstileTest, BrokerMatchesStandaloneAndExportsKnobs) {
  Rng gen_rng(59);
  const EdgeList graph = ErdosRenyiGnm(40, 160, gen_rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());

  engine::QuerySpec windowed;
  windowed.name = "win";
  windowed.kind = engine::QueryKind::kTurnstileF2Triangle;
  windowed.base = TestBase(7);
  windowed.num_vertices = graph.num_vertices();
  windowed.window_edges = 80;
  windowed.window_buckets = 4;

  engine::QuerySpec decayed;
  decayed.name = "dec";
  decayed.kind = engine::QueryKind::kTurnstileF2C4;
  decayed.base = TestBase(8);
  decayed.num_vertices = graph.num_vertices();
  decayed.decay_epoch_edges = 50;
  decayed.decay_log2 = 2;

  engine::StreamBroker broker;
  broker.AddQuery(windowed);
  broker.AddQuery(decayed);
  const std::vector<engine::QueryOutcome> outcomes =
      broker.RunTurnstileQueries(stream);
  ASSERT_EQ(outcomes.size(), 2u);

  {
    engine::TurnstileQuery standalone = engine::MakeTurnstileQuery(windowed);
    RunTurnstileStream(*standalone.algorithm, stream);
    EXPECT_EQ(outcomes[0].estimate.value, standalone.result().value);
  }
  {
    engine::TurnstileQuery standalone = engine::MakeTurnstileQuery(decayed);
    RunTurnstileStream(*standalone.algorithm, stream);
    EXPECT_EQ(outcomes[1].estimate.value, standalone.result().value);
  }

  RunManifest manifest("turnstile_test");
  engine::ExportToManifest(outcomes, broker.stats(), manifest);
  const std::string json = manifest.DeterministicJson();
  EXPECT_NE(json.find("\"window\""), std::string::npos);
  EXPECT_NE(json.find("\"window_buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"decay_epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"decay_log2\""), std::string::npos);
}

TEST(EngineTurnstileTest, RunTurnstileQueriesRejectsOtherFamilies) {
  engine::QuerySpec spec;
  spec.name = "edge";
  spec.kind = engine::QueryKind::kArbF2;
  spec.num_vertices = 8;
  engine::StreamBroker broker;
  broker.AddQuery(spec);
  EXPECT_DEATH(broker.RunTurnstileQueries(TurnstileStream{}),
               "non-turnstile");
}

// Spec-codec coverage for the windowing keys: strict parsing, the
// validation matrix, and the lossless Format -> Parse round trip.
TEST(TurnstileSpecTest, WindowingValidationAndRoundTrip) {
  const engine::QuerySpec defaults;
  auto parse = [&](const std::string& line, std::vector<engine::QuerySpec>* out,
                   std::string* error) {
    std::istringstream in(line);
    return engine::ParseSpecStream(in, "<spec>", defaults, out, error);
  };

  std::vector<engine::QuerySpec> specs;
  std::string error;
  ASSERT_TRUE(parse("name=q kind=turnstile-f2-triangle num_vertices=10 "
                    "window=40 window_buckets=4",
                    &specs, &error))
      << error;
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].window_edges, 40u);
  EXPECT_EQ(specs[0].window_buckets, 4u);

  // Round trip preserves every windowing field bit-for-bit.
  specs[0].decay_epoch_edges = 0;
  const std::string line = engine::FormatSpecLine(specs[0]);
  std::vector<engine::QuerySpec> reparsed;
  ASSERT_TRUE(parse(line, &reparsed, &error)) << error;
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_EQ(reparsed[0].window_edges, specs[0].window_edges);
  EXPECT_EQ(reparsed[0].window_buckets, specs[0].window_buckets);
  EXPECT_EQ(engine::FingerprintSpecs(reparsed),
            engine::FingerprintSpecs(specs));

  // Fingerprint changes when a result-affecting windowing knob changes.
  std::vector<engine::QuerySpec> other = specs;
  other[0].window_edges = 80;
  EXPECT_NE(engine::FingerprintSpecs(other), engine::FingerprintSpecs(specs));

  struct BadCase {
    const char* line;
    const char* needle;
  };
  const BadCase bad_cases[] = {
      {"name=q kind=arb-f2 window=40", "turnstile"},
      {"name=q kind=turnstile-f2-c4 window=40 window_buckets=7", "multiple"},
      {"name=q kind=turnstile-f2-c4 window=40 decay_epoch=10 decay_log2=2",
       "mutually exclusive"},
      {"name=q kind=turnstile-f2-c4 decay_epoch=10", "decay_log2"},
      {"name=q kind=turnstile-f2-c4 decay_epoch=10 decay_log2=33", "[0, 32]"},
      {"name=q kind=turnstile-f2-c4 decay_log2=2", "decay_epoch"},
  };
  for (const BadCase& c : bad_cases) {
    std::vector<engine::QuerySpec> ignored;
    error.clear();
    EXPECT_FALSE(parse(c.line, &ignored, &error)) << c.line;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << c.line << " -> " << error;
  }
}

}  // namespace
}  // namespace cyclestream
