#ifndef CYCLESTREAM_GRAPH_EXACT_H_
#define CYCLESTREAM_GRAPH_EXACT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "graph/flat_map.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace cyclestream {

/// Exact offline counters. These provide ground truth for every experiment
/// and test in the library. Notation follows the paper: T is the number of
/// triangles or 4-cycles, x_{uv} = |Γ(u) ∩ Γ(v)| is the wedge vector
/// (§4.2), a (u,v)-diamond of size h is K_{2,h} between {u,v} and their h
/// common neighbors and contains C(h,2) 4-cycles (§4.1).

/// Number of triangles. Builds a DodgGraph (graph/dodg.h) from g's edges;
/// callers needing both counts of one graph should build it once instead.
std::uint64_t CountTriangles(const Graph& g);

/// The naive triangle oracle: the forward algorithm (O(m^{3/2})) over
/// degree-ranked adjacency lists. The test reference for DodgGraph; not a
/// production path.
std::uint64_t NaiveCountTriangles(const Graph& g);

/// t_e for each edge (indexed like g.edges()): the number of triangles
/// containing that edge, i.e. |Γ(u) ∩ Γ(v)|.
std::vector<std::uint64_t> PerEdgeTriangleCounts(const Graph& g);

/// Number of length-2 paths (wedges): Σ_v C(deg(v), 2).
std::uint64_t CountWedges(const Graph& g);

/// Global clustering coefficient (transitivity): 3T / #wedges; 0 if no wedge.
double Transitivity(const Graph& g);

/// The wedge vector x: for every unordered pair {u,v} with at least one
/// common neighbor, x[PairKey(u,v)] = |Γ(u) ∩ Γ(v)|. Cost Σ_v C(deg v, 2)
/// time and one map entry per pair with a common neighbor. Stored in an
/// open-addressing flat map (see flat_map.h) — the increment in the inner
/// wedge loop is a masked probe into one contiguous array.
///
/// When the process-wide thread budget (`SetDefaultThreads`) exceeds 1,
/// ComputeWedgeVector partitions the center vertices into wedge-balanced
/// chunks, accumulates per-chunk maps in parallel, and merges them serially
/// in chunk-index order. Wedge counts are integer sums, so the map contents
/// are identical at every thread count.
using WedgeVector = FlatMap64<std::uint32_t>;
WedgeVector ComputeWedgeVector(const Graph& g);

/// Number of 4-cycles, through a DodgGraph like CountTriangles.
std::uint64_t CountFourCycles(const Graph& g);

/// The naive 4-cycle oracle: C4 = ½ Σ_{u<v} C(x_{uv}, 2) over the wedge
/// vector (each 4-cycle is counted once per diagonal pair, and it has two
/// diagonals). The test reference for DodgGraph; not a production path —
/// the wedge map holds one entry per pair with a common neighbor.
std::uint64_t NaiveCountFourCycles(const Graph& g);

/// Same, but from a precomputed wedge vector (avoids recomputation when both
/// the count and the vector are needed).
std::uint64_t CountFourCyclesFromWedges(const WedgeVector& x);

/// Number of 4-cycles that contain the edge (u,v). The edge need not exist in
/// g for the formula, but callers always pass real edges.
std::uint64_t CountFourCyclesThroughEdge(const Graph& g, VertexId u,
                                         VertexId v);

/// t(e) for every edge (indexed like g.edges()): per-edge 4-cycle counts.
/// Σ_e t(e) = 4·C4.
std::vector<std::uint64_t> PerEdgeFourCycleCounts(const Graph& g);

/// Diamond-size histogram: histogram[h] = number of vertex pairs {u,v} with
/// exactly h >= 2 common neighbors (i.e. the number of diamonds of size h).
std::map<std::uint32_t, std::uint64_t> DiamondHistogram(const Graph& g);

/// F2 of the wedge vector: Σ x_{uv}^2. The §4.2 algorithms estimate this.
std::uint64_t WedgeVectorF2(const WedgeVector& x);

/// F1 of the capped vector z with z_{uv} = min(x_{uv}, cap): Σ z_{uv}.
std::uint64_t WedgeVectorCappedF1(const WedgeVector& x, std::uint32_t cap);

/// Structural quantities for the Lemma 5.1 experiment: given a heaviness
/// threshold, counts 4-cycles by their number of "bad" (heavy) edges.
struct FourCycleHeavinessProfile {
  std::uint64_t total = 0;             // All 4-cycles.
  std::uint64_t with_bad[5] = {0, 0, 0, 0, 0};  // Indexed by #bad edges (0-4).
  std::uint64_t bad_edges = 0;         // Number of edges over the threshold.
};

/// Enumerates all 4-cycles (cost ~ Σ over wedges; intended for small/medium
/// graphs) and classifies them by how many of their edges lie in at least
/// `threshold` 4-cycles. Used to validate Lemma 5.1 empirically.
FourCycleHeavinessProfile ProfileFourCycleHeaviness(const Graph& g,
                                                    std::uint64_t threshold);

}  // namespace cyclestream

#endif  // CYCLESTREAM_GRAPH_EXACT_H_
