// Pinned estimates for the sketch kinds whose ±1 sign tables are built from
// k-wise hashes. Each expected value is the exact Result().value recorded
// from the per-vertex Horner build that preceded the forward-difference
// SignTable, on a fixed generated graph and stream. Any change to a sign
// stream (hash coefficients, seed chains, table layout) shows up here as a
// changed bit, across commits and without an A/B build.
//
// The second half checks the lazy tables: a counter that only merges or
// restores, and so never builds a sign table before its finalize, must give
// the same result as one that ingested.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/arb_f2_counter.h"
#include "core/turnstile_f2.h"
#include "engine/query.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "hash/rng.h"
#include "stream/driver.h"
#include "stream/dynamic/turnstile.h"
#include "stream/order.h"
#include "tests/test_util.h"
#include "util/serialize.h"

namespace cyclestream {
namespace {

constexpr VertexId kVertices = 200;

EdgeList PinGraph() {
  Rng rng(2024);
  return ErdosRenyiGnm(kVertices, 1600, rng);
}

// Inserts every edge, then deletes every third one.
TurnstileStream PinTurnstileStream(const EdgeList& graph) {
  TurnstileStream stream = TurnstileFromEdges(graph.edges());
  for (std::size_t i = 0; i < graph.edges().size(); i += 3) {
    stream.emplace_back(graph.edges()[i], TurnstileOp::kDelete);
  }
  return stream;
}

engine::QuerySpec PinSpec(engine::QueryKind kind, std::uint64_t seed) {
  engine::QuerySpec spec;
  spec.name = "pin";
  spec.kind = kind;
  spec.base.epsilon = 0.3;
  spec.base.t_guess = 2000.0;
  spec.base.seed = seed;
  spec.num_vertices = kVertices;
  return spec;
}

// On a mismatch the message prints the new value as a hex float, ready to
// paste if a sign-stream change is ever intended.
void ExpectPinned(double got, double pinned, const char* what) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", got);
  EXPECT_EQ(got, pinned) << what << " now gives " << buf;
}

TEST(EstimatePinTest, ArbF2) {
  const EdgeList graph = PinGraph();
  Rng order(7);
  const EdgeStream stream = MakeRandomOrderStream(graph, order);
  engine::EdgeQuery q =
      engine::MakeEdgeQuery(PinSpec(engine::QueryKind::kArbF2, 11));
  RunEdgeStream(*q.algorithm, stream);
  ExpectPinned(q.result().value, 0x1.009bbd37a6f4ep+14, "arb-f2");
}

TEST(EstimatePinTest, AdjF2) {
  const EdgeList graph = PinGraph();
  Rng order(8);
  const AdjacencyStream stream = MakeAdjacencyStream(Graph(graph), order);
  engine::AdjacencyQuery q =
      engine::MakeAdjacencyQuery(PinSpec(engine::QueryKind::kAdjF2, 12));
  RunAdjacencyStream(*q.algorithm, stream);
  ExpectPinned(q.result().value, 0x1.fd4eaap+12, "adj-f2");
}

TEST(EstimatePinTest, TurnstileKinds) {
  const TurnstileStream stream = PinTurnstileStream(PinGraph());
  {
    engine::TurnstileQuery q = engine::MakeTurnstileQuery(
        PinSpec(engine::QueryKind::kTurnstileF2C4, 13));
    RunTurnstileStream(*q.algorithm, stream);
    ExpectPinned(q.result().value, 0x1.da7d37a6f4deap+11, "turnstile-f2-c4");
  }
  {
    // The sparse pin graph's triangle estimate clamps to 0; a clique with
    // a third of its edges deleted pins a nonzero value.
    engine::TurnstileQuery q = engine::MakeTurnstileQuery(
        PinSpec(engine::QueryKind::kTurnstileF2Triangle, 14));
    RunTurnstileStream(*q.algorithm, PinTurnstileStream(testing::Clique(60)));
    ExpectPinned(q.result().value, 0x1.2caed7303b5ccp+13, "turnstile-f2-triangle");
  }
  {
    engine::QuerySpec spec = PinSpec(engine::QueryKind::kTurnstileF2C4, 15);
    spec.window_edges = 800;
    spec.window_buckets = 4;
    engine::TurnstileQuery q = engine::MakeTurnstileQuery(spec);
    RunTurnstileStream(*q.algorithm, stream);
    ExpectPinned(q.result().value, 0x1.983d37a6f4deap+11, "windowed turnstile-f2-c4");
  }
}

ArbF2Params LazyArbParams() {
  ArbF2Params p;
  p.base.epsilon = 0.3;
  p.base.seed = 21;
  p.num_vertices = kVertices;
  return p;
}

TEST(LazySignTableTest, MergeOnlyArbF2MatchesIngested) {
  const EdgeList graph = PinGraph();
  Rng order(9);
  const EdgeStream stream = MakeRandomOrderStream(graph, order);
  ArbF2FourCycleCounter ingested(LazyArbParams());
  RunEdgeStream(ingested, stream);
  const double want = ingested.Result().value;
  ASSERT_GT(want, 0.0);

  // Typed merge (the window fold) and blob merge (the shard coordinator).
  ArbF2FourCycleCounter typed(LazyArbParams());
  ASSERT_TRUE(typed.MergeFrom(ingested));
  EXPECT_EQ(typed.Result().value, want);

  StateWriter w;
  ASSERT_TRUE(ingested.SaveState(w));
  const std::string blob = w.Take();
  ArbF2FourCycleCounter blob_merged(LazyArbParams());
  StateReader r(blob);
  ASSERT_TRUE(blob_merged.MergeState(r));
  EXPECT_EQ(blob_merged.Result().value, want);

  // A resumed counter restores first and ingests after: its first update
  // builds the tables, and the rest of the stream lands as if uninterrupted.
  const std::size_t half = stream.size() / 2;
  ArbF2FourCycleCounter first(LazyArbParams());
  first.StartPass(0, stream.size());
  for (std::size_t i = 0; i < half; ++i) first.ProcessEdge(0, stream[i], i);
  StateWriter cw;
  ASSERT_TRUE(first.SaveState(cw));
  const std::string ckpt = cw.Take();
  ArbF2FourCycleCounter resumed(LazyArbParams());
  StateReader cr(ckpt);
  ASSERT_TRUE(resumed.RestoreState(cr));
  for (std::size_t i = half; i < stream.size(); ++i) {
    resumed.ProcessEdge(0, stream[i], i);
  }
  resumed.EndPass(0);
  EXPECT_EQ(resumed.Result().value, want);
}

TEST(LazySignTableTest, MergeOnlyTurnstileTriangleMatchesIngested) {
  const TurnstileStream stream = PinTurnstileStream(testing::Clique(60));
  TurnstileF2TriangleParams p;
  p.base.epsilon = 0.3;
  p.base.seed = 22;
  p.num_vertices = kVertices;
  TurnstileF2TriangleCounter ingested(p);
  RunTurnstileStream(ingested, stream);
  const double want = ingested.Result().value;
  ASSERT_GT(want, 0.0);
  TurnstileF2TriangleCounter merged(p);
  ASSERT_TRUE(merged.MergeFrom(ingested));
  EXPECT_EQ(merged.Result().value, want);
}

}  // namespace
}  // namespace cyclestream
