#include "graph/exact.h"

#include <algorithm>
#include <unordered_set>

#include "graph/dodg.h"
#include "graph/intersect.h"
#include "util/check.h"
#include "util/parallel.h"

namespace cyclestream {
namespace {

// Degree-based total order used to orient edges for triangle counting:
// u precedes v if deg(u) < deg(v), ties broken by id. Orienting every edge
// from the lower-ranked endpoint bounds out-degrees by O(√m), giving the
// O(m^{3/2}) "forward" algorithm.
struct RankOrder {
  const Graph* g;
  bool operator()(VertexId a, VertexId b) const {
    const auto da = g->Degree(a), db = g->Degree(b);
    if (da != db) return da < db;
    return a < b;
  }
};

inline std::uint64_t Choose2(std::uint64_t x) { return x * (x - 1) / 2; }

}  // namespace

std::uint64_t CountTriangles(const Graph& g) {
  return DodgGraph::Build(g.edges().data(), g.num_edges(), g.num_vertices())
      .CountTriangles();
}

std::uint64_t NaiveCountTriangles(const Graph& g) {
  const VertexId n = g.num_vertices();
  RankOrder before{&g};
  // Oriented adjacency: out[v] = higher-ranked neighbors of v, sorted by id.
  std::vector<std::vector<VertexId>> out(n);
  for (const Edge& e : g.edges()) {
    if (before(e.u, e.v)) {
      out[e.u].push_back(e.v);
    } else {
      out[e.v].push_back(e.u);
    }
  }
  for (auto& list : out) std::sort(list.begin(), list.end());

  std::uint64_t triangles = 0;
  for (const Edge& e : g.edges()) {
    const VertexId lo = before(e.u, e.v) ? e.u : e.v;
    const VertexId hi = lo == e.u ? e.v : e.u;
    // Intersecting out-lists over all edges counts each triangle once, at
    // the edge joining its two lowest-ranked vertices.
    const auto& a = out[lo];
    const auto& b = out[hi];
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (a[i] > b[j]) {
        ++j;
      } else {
        ++triangles;
        ++i;
        ++j;
      }
    }
  }
  return triangles;
}

std::vector<std::uint64_t> PerEdgeTriangleCounts(const Graph& g) {
  std::vector<std::uint64_t> counts;
  counts.reserve(g.num_edges());
  for (const Edge& e : g.edges()) {
    counts.push_back(g.CommonNeighborCount(e.u, e.v));
  }
  return counts;
}

std::uint64_t CountWedges(const Graph& g) {
  std::uint64_t wedges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    wedges += Choose2(g.Degree(v));
  }
  return wedges;
}

double Transitivity(const Graph& g) {
  const std::uint64_t wedges = CountWedges(g);
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(CountTriangles(g)) /
         static_cast<double>(wedges);
}

namespace {

// Accumulates the wedges centered at vertices [first, last) into x.
void AccumulateWedges(const Graph& g, VertexId first, VertexId last,
                      WedgeVector& x) {
  for (VertexId w = first; w < last; ++w) {
    const auto nbrs = g.Neighbors(w);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        ++x[PairKey(nbrs[i], nbrs[j])];
      }
    }
  }
}

// Splits [0, n) into up to `want` contiguous vertex ranges of roughly equal
// wedge work (Σ C(deg, 2)); returns the range boundaries.
std::vector<VertexId> WedgeBalancedChunks(const Graph& g, int want) {
  const std::uint64_t total = CountWedges(g);
  const std::uint64_t per_chunk =
      std::max<std::uint64_t>(1, total / static_cast<std::uint64_t>(want));
  std::vector<VertexId> bounds{0};
  std::uint64_t acc = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    acc += Choose2(g.Degree(v));
    if (acc >= per_chunk && v + 1 < g.num_vertices()) {
      bounds.push_back(v + 1);
      acc = 0;
    }
  }
  bounds.push_back(g.num_vertices());
  return bounds;
}

}  // namespace

WedgeVector ComputeWedgeVector(const Graph& g) {
  const std::uint64_t wedges = CountWedges(g);
  const int threads = DefaultThreads();
  WedgeVector x;
  // Heuristic reserve: most wedge endpoints repeat, so #pairs <= #wedges.
  x.reserve(std::min<std::uint64_t>(wedges, 1u << 24));
  // Parallel path only when the work amortizes the per-chunk maps; wedge
  // counts are integer sums, so the merged contents are identical to the
  // serial fill at any thread count.
  if (threads <= 1 || wedges < (1u << 16)) {
    AccumulateWedges(g, 0, g.num_vertices(), x);
    return x;
  }
  const std::vector<VertexId> bounds = WedgeBalancedChunks(g, 4 * threads);
  const std::size_t chunks = bounds.size() - 1;
  std::vector<WedgeVector> partial = ParallelMap(chunks, [&](std::size_t c) {
    WedgeVector local;
    AccumulateWedges(g, bounds[c], bounds[c + 1], local);
    return local;
  });
  // Deterministic merge: chunk-index order.
  for (const WedgeVector& local : partial) {
    for (const auto& [key, count] : local) x[key] += count;
  }
  return x;
}

std::uint64_t CountFourCyclesFromWedges(const WedgeVector& x) {
  std::uint64_t twice = 0;
  for (const auto& [key, count] : x) {
    (void)key;
    twice += Choose2(count);
  }
  CHECK_EQ(twice % 2, 0u);
  return twice / 2;
}

std::uint64_t CountFourCycles(const Graph& g) {
  return DodgGraph::Build(g.edges().data(), g.num_edges(), g.num_vertices())
      .CountFourCycles();
}

std::uint64_t NaiveCountFourCycles(const Graph& g) {
  return CountFourCyclesFromWedges(ComputeWedgeVector(g));
}

std::uint64_t CountFourCyclesThroughEdge(const Graph& g, VertexId u,
                                         VertexId v) {
  // A 4-cycle through (u,v) is a path u - x - w - v with all four vertices
  // distinct. Enumerate w ∈ Γ(v)\{u}, then x ∈ Γ(w) ∩ Γ(u) \ {v}.
  const auto nu = g.Neighbors(u);
  const bool v_in_nu = SortedContains(nu, v);
  std::uint64_t count = 0;
  for (VertexId w : g.Neighbors(v)) {
    if (w == u) continue;
    const auto nw = g.Neighbors(w);
    std::uint64_t common = SortedIntersectionCount(nw, nu);
    // Drop the x = v solution: v ∈ Γ(w) always holds (w is v's neighbor),
    // so it was counted iff v ∈ Γ(u) too.
    if (v_in_nu && common > 0) --common;
    count += common;
  }
  return count;
}

std::vector<std::uint64_t> PerEdgeFourCycleCounts(const Graph& g) {
  std::vector<std::uint64_t> counts;
  counts.reserve(g.num_edges());
  for (const Edge& e : g.edges()) {
    counts.push_back(CountFourCyclesThroughEdge(g, e.u, e.v));
  }
  return counts;
}

std::map<std::uint32_t, std::uint64_t> DiamondHistogram(const Graph& g) {
  const WedgeVector x = ComputeWedgeVector(g);
  std::map<std::uint32_t, std::uint64_t> hist;
  const int threads = DefaultThreads();
  if (threads <= 1 || x.size() < (1u << 16)) {
    for (const auto& [key, count] : x) {
      (void)key;
      if (count >= 2) ++hist[count];
    }
    return hist;
  }
  // Shard the flat table by slot range; per-shard histograms merge by
  // integer addition (in shard order, though any order gives the same map).
  const std::size_t shards = static_cast<std::size_t>(4 * threads);
  const std::size_t per_shard = (x.capacity() + shards - 1) / shards;
  auto partial = ParallelMap(shards, [&](std::size_t s) {
    std::map<std::uint32_t, std::uint64_t> local;
    x.VisitSlotRange(s * per_shard, (s + 1) * per_shard,
                     [&local](std::uint64_t, std::uint32_t count) {
                       if (count >= 2) ++local[count];
                     });
    return local;
  });
  for (const auto& local : partial) {
    for (const auto& [size, n] : local) hist[size] += n;
  }
  return hist;
}

std::uint64_t WedgeVectorF2(const WedgeVector& x) {
  std::uint64_t f2 = 0;
  for (const auto& [key, count] : x) {
    (void)key;
    f2 += static_cast<std::uint64_t>(count) * count;
  }
  return f2;
}

std::uint64_t WedgeVectorCappedF1(const WedgeVector& x, std::uint32_t cap) {
  std::uint64_t f1 = 0;
  for (const auto& [key, count] : x) {
    (void)key;
    f1 += std::min(count, cap);
  }
  return f1;
}

FourCycleHeavinessProfile ProfileFourCycleHeaviness(const Graph& g,
                                                    std::uint64_t threshold) {
  FourCycleHeavinessProfile profile;
  const auto per_edge = PerEdgeFourCycleCounts(g);
  std::unordered_set<std::uint64_t, Mix64Hash> heavy;
  for (std::size_t i = 0; i < per_edge.size(); ++i) {
    if (per_edge[i] >= threshold) heavy.insert(g.edges()[i].Key());
  }
  profile.bad_edges = heavy.size();
  auto is_heavy = [&heavy](VertexId a, VertexId b) {
    return heavy.count(Edge(a, b).Key()) > 0;
  };

  // Enumerate each 4-cycle once: for every diagonal pair {u,v} list the
  // common neighbors; each unordered pair {a,b} of common neighbors is a
  // cycle u-a-v-b. Count the cycle only from its lexicographically smaller
  // diagonal to avoid the factor-2 double count.
  const WedgeVector x = ComputeWedgeVector(g);
  std::vector<VertexId> common;
  for (const auto& [key, count] : x) {
    if (count < 2) continue;
    const Edge diag = PairFromKey(key);
    common.clear();
    // Recover the common neighborhood by sorted intersection.
    const auto na = g.Neighbors(diag.u);
    const auto nb = g.Neighbors(diag.v);
    std::size_t i = 0, j = 0;
    while (i < na.size() && j < nb.size()) {
      if (na[i] < nb[j]) {
        ++i;
      } else if (na[i] > nb[j]) {
        ++j;
      } else {
        common.push_back(na[i]);
        ++i;
        ++j;
      }
    }
    CHECK_EQ(common.size(), count);
    for (std::size_t a = 0; a < common.size(); ++a) {
      for (std::size_t b = a + 1; b < common.size(); ++b) {
        // Other diagonal: {common[a], common[b]}.
        if (PairKey(common[a], common[b]) < key) continue;  // Counted there.
        ++profile.total;
        int bad = 0;
        bad += is_heavy(diag.u, common[a]) ? 1 : 0;
        bad += is_heavy(common[a], diag.v) ? 1 : 0;
        bad += is_heavy(diag.v, common[b]) ? 1 : 0;
        bad += is_heavy(common[b], diag.u) ? 1 : 0;
        ++profile.with_bad[bad];
      }
    }
  }
  return profile;
}

}  // namespace cyclestream
