// Property tests for the DODG exact counter (graph/dodg.h), the only
// production exact path: on ~60 seeded graph families — structured, random,
// power-law, adversarial lower-bound gadgets, degenerate and subsampled
// graphs, dirty inputs — the DODG triangle and 4-cycle counts, and the
// CountTriangles/CountFourCycles entry points built on it, must equal the
// naive oracles (NaiveCountTriangles / NaiveCountFourCycles) bit for bit,
// across {scalar, auto-SIMD} kernels × {1, 8} threads × {default, tiny} hub
// range. The tiny hub range forces the
// sparse-tail intersection kernels even on small graphs; the default range
// puts every vertex of a small graph on the dense bitmap path.

#include "graph/dodg.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "gen/lower_bound.h"
#include "graph/binary_io.h"
#include "graph/datasets.h"
#include "graph/edge_list.h"
#include "graph/exact.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "hash/rng.h"
#include "util/parallel.h"

namespace cyclestream {
namespace {

struct NamedGraph {
  std::string name;
  EdgeList graph;
};

EdgeList Clique(VertexId n) {
  EdgeList g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) g.Add(u, v);
  }
  g.Finalize();
  return g;
}

EdgeList CycleGraph(VertexId n) {
  EdgeList g(n);
  for (VertexId u = 0; u + 1 < n; ++u) g.Add(u, u + 1);
  if (n > 2) g.Add(n - 1, 0);
  g.Finalize();
  return g;
}

EdgeList PathGraph(VertexId n) {
  EdgeList g(n);
  for (VertexId u = 0; u + 1 < n; ++u) g.Add(u, u + 1);
  g.Finalize();
  return g;
}

// Restores process-wide knobs the matrix below mutates, so a failing
// assertion cannot leak scalar mode or a thread budget into other tests.
struct KnobGuard {
  ~KnobGuard() {
    SetExactSimdMode(ExactSimdMode::kAuto);
    SetDefaultThreads(0);
  }
};

// The full determinism matrix for one graph: naive oracle once, then the
// public entry points every caller of exact ground truth uses, then DODG
// under every combination of kernels, thread budget, and hub range.
void ExpectBackendsAgree(const NamedGraph& g) {
  SetDefaultThreads(1);
  const Graph reference(g.graph);
  const std::uint64_t triangles = NaiveCountTriangles(reference);
  const std::uint64_t four_cycles = NaiveCountFourCycles(reference);
  EXPECT_EQ(CountTriangles(reference), triangles) << g.name;
  EXPECT_EQ(CountFourCycles(reference), four_cycles) << g.name;

  for (const ExactSimdMode mode :
       {ExactSimdMode::kScalar, ExactSimdMode::kAuto}) {
    SetExactSimdMode(mode);
    for (const int threads : {1, 8}) {
      SetDefaultThreads(threads);
      for (const VertexId hub : {VertexId{0}, VertexId{3}}) {
        DodgGraph::Options options;
        options.hub_range = hub;
        const DodgGraph dodg = DodgGraph::Build(g.graph, options);
        const std::string context =
            g.name + " [kernels=" + ActiveExactKernels() +
            " threads=" + std::to_string(threads) +
            " hub=" + std::to_string(dodg.hub_range()) + "]";
        EXPECT_EQ(dodg.num_vertices(), g.graph.num_vertices()) << context;
        EXPECT_EQ(dodg.num_edges(), g.graph.num_edges()) << context;
        EXPECT_EQ(dodg.CountTriangles(), triangles) << context;
        EXPECT_EQ(dodg.CountFourCycles(), four_cycles) << context;
      }
    }
  }
  SetExactSimdMode(ExactSimdMode::kAuto);
  SetDefaultThreads(1);
}

void RunFamilies(const std::vector<NamedGraph>& families) {
  for (const NamedGraph& g : families) ExpectBackendsAgree(g);
}

TEST(DodgPropertyTest, StructuredFamilies) {
  KnobGuard guard;
  std::vector<NamedGraph> families;
  {
    EdgeList empty(0);
    empty.Finalize();
    families.push_back({"empty", std::move(empty)});
  }
  {
    EdgeList isolated(10);
    isolated.Finalize();
    families.push_back({"isolated-vertices", std::move(isolated)});
  }
  {
    EdgeList single(2);
    single.Add(0, 1);
    single.Finalize();
    families.push_back({"single-edge", std::move(single)});
  }
  families.push_back({"path-50", PathGraph(50)});
  families.push_back({"cycle-4", CycleGraph(4)});
  families.push_back({"cycle-5", CycleGraph(5)});
  families.push_back({"cycle-60", CycleGraph(60)});
  families.push_back({"clique-5", Clique(5)});
  families.push_back({"clique-17", Clique(17)});
  // K40: rows of 39 neighbors exercise the 8-wide SIMD block loop + tail.
  families.push_back({"clique-40", Clique(40)});
  families.push_back({"star-1x20", CompleteBipartite(1, 20)});
  families.push_back({"bipartite-3x4", CompleteBipartite(3, 4)});
  families.push_back({"bipartite-8x8", CompleteBipartite(8, 8)});
  families.push_back({"grid-5x7", Grid2d(5, 7)});
  families.push_back({"grid-12x12", Grid2d(12, 12)});
  families.push_back({"karate", KarateClub()});
  {
    Rng rng(11);
    families.push_back({"tree-100", RandomTree(100, rng)});
  }
  {
    Rng rng(12);
    families.push_back({"tree-400", RandomTree(400, rng)});
  }
  {
    Rng rng(13);
    std::vector<EdgeList> parts;
    parts.push_back(Clique(6));
    parts.push_back(Grid2d(4, 4));
    parts.push_back(RandomTree(30, rng));
    families.push_back({"disjoint-union", DisjointUnion(parts)});
  }
  ASSERT_GE(families.size(), 19u);
  RunFamilies(families);
}

TEST(DodgPropertyTest, RandomFamilies) {
  KnobGuard guard;
  std::vector<NamedGraph> families;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    Rng rng(seed);
    families.push_back({"er-100-300-s" + std::to_string(seed),
                        ErdosRenyiGnm(100, 300, rng)});
  }
  for (const std::uint64_t seed : {6, 7}) {
    Rng rng(seed);
    families.push_back({"er-300-2000-s" + std::to_string(seed),
                        ErdosRenyiGnm(300, 2000, rng)});
  }
  for (const std::uint64_t seed : {8, 9}) {
    Rng rng(seed);
    families.push_back(
        {"gnp-200-s" + std::to_string(seed), ErdosRenyiGnp(200, 0.05, rng)});
  }
  for (const std::uint64_t seed : {10, 11, 12}) {
    Rng rng(seed);
    families.push_back(
        {"ba-200-3-s" + std::to_string(seed), BarabasiAlbert(200, 3, rng)});
  }
  {
    Rng rng(13);
    families.push_back({"ba-500-8", BarabasiAlbert(500, 8, rng)});
  }
  for (const std::uint64_t seed : {14, 15}) {
    Rng rng(seed);
    families.push_back({"chung-lu-300-s" + std::to_string(seed),
                        ChungLuPowerLaw(300, 8.0, 2.5, rng)});
  }
  for (const std::uint64_t seed : {16, 17}) {
    Rng rng(seed);
    families.push_back({"ws-200-6-s" + std::to_string(seed),
                        WattsStrogatz(200, 6, 0.1, rng)});
  }
  for (const std::uint64_t seed : {18, 19}) {
    Rng rng(seed);
    families.push_back({"c4free-200-s" + std::to_string(seed),
                        FourCycleFreeRandom(200, 600, false, rng)});
  }
  {
    Rng rng(20);
    families.push_back({"c4free-trifree-200",
                        FourCycleFreeRandom(200, 600, true, rng)});
  }
  ASSERT_GE(families.size(), 18u);
  RunFamilies(families);
}

TEST(DodgPropertyTest, PlantedAndAdversarialFamilies) {
  KnobGuard guard;
  std::vector<NamedGraph> families;
  const auto base = [] {
    Rng rng(30);
    return ErdosRenyiGnm(80, 160, rng);
  };
  {
    Rng rng(31);
    families.push_back({"plant-triangles", PlantTriangles(base(), 20, rng)});
  }
  {
    Rng rng(32);
    families.push_back({"plant-book", PlantBook(base(), 15, rng)});
  }
  {
    Rng rng(33);
    families.push_back(
        {"plant-diamonds",
         PlantDiamonds(base(), {{4, 3}, {8, 2}}, rng)});
  }
  {
    Rng rng(34);
    families.push_back({"plant-c4", PlantFourCycles(base(), 25, rng)});
  }
  {
    Rng rng(35);
    families.push_back({"plant-theta", PlantTheta(base(), 12, rng)});
  }
  for (const bool planted : {false, true}) {
    Rng rng(36);
    TriangleGadget gadget = MakeTriangleLowerBoundGadget(6, 5, planted, rng);
    families.push_back(
        {std::string("lb-triangle-") + (planted ? "planted" : "empty"),
         std::move(gadget.graph)});
  }
  for (const bool intersecting : {false, true}) {
    Rng rng(37);
    FourCycleGadget gadget =
        MakeFourCycleLowerBoundGadget(4, 5, 0.5, intersecting, rng);
    families.push_back(
        {std::string("lb-c4-") + (intersecting ? "intersecting" : "disjoint"),
         std::move(gadget.graph)});
  }
  // The planted structures carry known counts — sanity-check one of each so
  // the oracle agreement above isn't vacuously comparing two zeros.
  {
    Rng rng(38);
    const TriangleGadget gadget = MakeTriangleLowerBoundGadget(6, 5, true, rng);
    const DodgGraph dodg = DodgGraph::Build(gadget.graph);
    EXPECT_EQ(dodg.CountTriangles(), gadget.expected_triangles);
  }
  {
    Rng rng(39);
    const FourCycleGadget gadget =
        MakeFourCycleLowerBoundGadget(4, 5, 0.5, true, rng);
    const DodgGraph dodg = DodgGraph::Build(gadget.graph);
    EXPECT_EQ(dodg.CountFourCycles(), gadget.expected_four_cycles);
  }
  ASSERT_GE(families.size(), 9u);
  RunFamilies(families);
}

// The degenerate shapes the oracle's callers produce beyond the structured
// families above (which already hold n=0, isolated-only, and one edge):
// the CLI's batches and the naive-sampling baselines' subsampled graphs,
// which declare no n and let ids grow to cover the sample.
TEST(DodgPropertyTest, DegenerateAndSubsampledFamilies) {
  KnobGuard guard;
  std::vector<NamedGraph> families;
  families.push_back({"n=1,m=0", EdgeList(1)});
  families.push_back({"isolated-only-1000", EdgeList(1000)});
  {
    EdgeList single(100);
    single.Add(98, 99);
    families.push_back({"single-edge-top-ids", std::move(single)});
  }
  {
    // An edge and a K4 among the top ids of a mostly isolated graph: the
    // relabel puts hundreds of degree-0 vertices after the hubs.
    EdgeList sparse(1000);
    sparse.Add(3, 500);
    for (VertexId u = 996; u < 1000; ++u) {
      for (VertexId v = u + 1; v < 1000; ++v) sparse.Add(u, v);
    }
    families.push_back({"mostly-isolated-k4", std::move(sparse)});
  }
  for (const double p : {0.02, 0.1, 0.3}) {
    Rng rng(44);
    const EdgeList ba = BarabasiAlbert(3000, 6, rng);
    Rng coin(45);
    EdgeList sample;
    for (const Edge& e : ba.edges()) {
      if (coin.UniformDouble() < p) sample.Add(e.u, e.v);
    }
    families.push_back(
        {"ba-subsample-p" + std::to_string(p), std::move(sample)});
  }
  for (NamedGraph& g : families) g.graph.Finalize();
  RunFamilies(families);
}

TEST(DodgPropertyTest, DirtyInputsMatchEdgeListCleanup) {
  KnobGuard guard;
  // Raw pairs with self-loops, duplicates (in both orientations), and ids
  // beyond the declared vertex count: FromPairs must apply exactly the
  // EdgeList::FromPairs cleanup, so the counts match the naive backend.
  Rng rng(40);
  const EdgeList clean = ErdosRenyiGnm(60, 200, rng);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (const Edge& e : clean.edges()) {
    pairs.emplace_back(e.u, e.v);
    if (rng.UniformDouble() < 0.3) pairs.emplace_back(e.v, e.u);  // Duplicate.
    if (rng.UniformDouble() < 0.1) pairs.emplace_back(e.u, e.u);  // Self-loop.
  }
  pairs.emplace_back(70, 75);  // Beyond the declared n=60.
  pairs.emplace_back(75, 70);

  const EdgeList cleaned = EdgeList::FromPairs(60, pairs);
  const Graph reference(cleaned);
  const std::uint64_t triangles = NaiveCountTriangles(reference);
  const std::uint64_t four_cycles = NaiveCountFourCycles(reference);

  const DodgGraph dodg = DodgGraph::FromPairs(60, pairs);
  EXPECT_EQ(dodg.num_vertices(), cleaned.num_vertices());
  EXPECT_EQ(dodg.num_edges(), cleaned.num_edges());
  EXPECT_EQ(dodg.CountTriangles(), triangles);
  EXPECT_EQ(dodg.CountFourCycles(), four_cycles);
}

TEST(DodgPropertyTest, BinaryStreamWithDuplicatesFeedsBuildDirectly) {
  KnobGuard guard;
  // The scale path: a .bin stream (duplicates legal) mmaps straight into
  // Build without an EdgeList. Duplicates must collapse to the same counts.
  Rng rng(41);
  const EdgeList graph = BarabasiAlbert(300, 4, rng);
  std::vector<Edge> stream(graph.edges());
  for (std::size_t i = 0; i < graph.num_edges(); i += 3) {
    stream.push_back(graph.edges()[i]);  // Every third edge twice.
  }
  const std::string path =
      ::testing::TempDir() + "/dodg_dup_stream.bin";
  std::string error;
  ASSERT_TRUE(WriteBinaryEdgeStream(stream.data(), stream.size(),
                                    graph.num_vertices(), path, &error))
      << error;
  BinaryEdgeReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  ASSERT_EQ(reader.num_edges(), stream.size());

  const DodgGraph dodg = DodgGraph::Build(
      reader.edges(), reader.num_edges(), reader.num_vertices());
  EXPECT_EQ(dodg.num_edges(), graph.num_edges());
  const Graph reference(graph);
  EXPECT_EQ(dodg.CountTriangles(), NaiveCountTriangles(reference));
  EXPECT_EQ(dodg.CountFourCycles(), NaiveCountFourCycles(reference));
  std::remove(path.c_str());
}

TEST(DodgTest, StructureInvariants) {
  KnobGuard guard;
  Rng rng(42);
  const EdgeList graph = BarabasiAlbert(200, 3, rng);
  const DodgGraph dodg = DodgGraph::Build(graph);
  const VertexId n = dodg.num_vertices();
  ASSERT_EQ(n, graph.num_vertices());
  std::size_t total_out = 0;
  for (VertexId v = 0; v < n; ++v) {
    // Degree-descending relabel: degrees are non-increasing in new-id order.
    if (v > 0) {
      EXPECT_GE(dodg.Degree(v - 1), dodg.Degree(v)) << v;
    }
    const auto out = dodg.OutNeighbors(v);
    const auto up = dodg.UpNeighbors(v);
    EXPECT_EQ(out.size() + up.size(), dodg.Degree(v)) << v;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_LT(out[i], v) << v;  // Out-edges point at smaller (hub) ids.
      if (i > 0) {
        EXPECT_LT(out[i - 1], out[i]) << v;  // Sorted, unique.
      }
    }
    for (std::size_t i = 0; i < up.size(); ++i) {
      EXPECT_GT(up[i], v) << v;
      if (i > 0) {
        EXPECT_LT(up[i - 1], up[i]) << v;
      }
    }
    total_out += out.size();
  }
  EXPECT_EQ(total_out, dodg.num_edges());  // Each edge oriented exactly once.
  // The relabeling is a permutation.
  std::vector<bool> seen(n, false);
  for (const VertexId id : dodg.new_ids()) {
    ASSERT_LT(id, n);
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
  }
}

// The scale oracle check: BA n=50000, deg 6, seed 7 — the graph
// `cyclestream_cli generate --model ba --n 50000 --deg 6 --seed 7` writes —
// through the full kernel × thread × hub-range matrix against the naive
// oracles. Kept apart from the property suite so a build can run it on its
// own per ISA.
TEST(DodgScaleTest, BarabasiAlbert50000MatchesNaiveOracle) {
  KnobGuard guard;
  Rng rng(7);
  const NamedGraph ba{"ba-50000-6-s7", BarabasiAlbert(50000, 6, rng)};
  const Graph g(ba.graph);
  ASSERT_GT(CountTriangles(g), 0u);
  ASSERT_GT(CountFourCycles(g), 0u);
  ExpectBackendsAgree(ba);
}

TEST(DodgTest, KernelNameMatchesSimdMode) {
  KnobGuard guard;
  SetExactSimdMode(ExactSimdMode::kScalar);
  EXPECT_STREQ(ActiveExactKernels(), "scalar");
  SetExactSimdMode(ExactSimdMode::kAuto);
  // Auto resolves to whatever this build/CPU supports; both are valid, but
  // the name must be one of the two dispatchable kernel sets.
  const std::string name = ActiveExactKernels();
  EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
}

}  // namespace
}  // namespace cyclestream
