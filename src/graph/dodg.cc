#include "graph/dodg.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "graph/dodg_kernels.h"
#include "graph/intersect.h"
#include "util/check.h"
#include "util/parallel.h"

namespace cyclestream {

namespace internal {

std::uint64_t IntersectScalar(const VertexId* a, std::size_t na,
                              const VertexId* b, std::size_t nb) {
  return SortedIntersectionCount({a, na}, {b, nb});
}

std::uint64_t AndPopcountScalar(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

}  // namespace internal

namespace {

ExactSimdMode g_simd_mode = ExactSimdMode::kAuto;

struct KernelTable {
  internal::IntersectFn intersect;
  internal::AndPopcountFn and_popcount;
  const char* name;
};

KernelTable PickKernels() {
#if defined(CYCLESTREAM_HAVE_AVX2)
  if (g_simd_mode == ExactSimdMode::kAuto &&
      __builtin_cpu_supports("avx2")) {
    return {&internal::IntersectAvx2, &internal::AndPopcountAvx2, "avx2"};
  }
#endif
  return {&internal::IntersectScalar, &internal::AndPopcountScalar, "scalar"};
}

/// Sorts 64-bit keys: per-chunk std::sort on the default pool, then pairwise
/// merge rounds. The result is a sorted array either way, so the partition
/// (which depends on the thread budget) cannot leak into any count.
void ParallelSortKeys(std::vector<std::uint64_t>& keys) {
  const std::size_t n = keys.size();
  const int threads = DefaultThreads();
  if (threads <= 1 || n < (std::size_t{1} << 15)) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  std::size_t parts = 1;
  while (parts < static_cast<std::size_t>(threads)) parts <<= 1;
  std::vector<std::size_t> bounds(parts + 1);
  for (std::size_t i = 0; i <= parts; ++i) bounds[i] = n * i / parts;
  ParallelFor(parts, [&](std::size_t i) {
    std::sort(keys.begin() + bounds[i], keys.begin() + bounds[i + 1]);
  });
  std::vector<std::uint64_t> scratch(n);
  std::vector<std::uint64_t>* src = &keys;
  std::vector<std::uint64_t>* dst = &scratch;
  for (std::size_t width = 1; width < parts; width <<= 1) {
    const std::size_t pairs = parts / (2 * width);
    ParallelFor(pairs, [&](std::size_t p) {
      const std::size_t lo = bounds[2 * width * p];
      const std::size_t mid = bounds[2 * width * p + width];
      const std::size_t hi = bounds[2 * width * p + 2 * width];
      std::merge(src->begin() + lo, src->begin() + mid, src->begin() + mid,
                 src->begin() + hi, dst->begin() + lo);
    });
    std::swap(src, dst);
  }
  if (src != &keys) keys.swap(scratch);
}

/// Splits [0, cost.size()) into up to `target` contiguous ranges of roughly
/// equal total cost (each item also pays 1 so empty-cost vertices still
/// spread). Returns the boundary vertices, first 0, last n.
std::vector<VertexId> CostBalancedBounds(const std::vector<std::uint64_t>& cost,
                                         std::size_t target) {
  const std::size_t n = cost.size();
  std::uint64_t total = n;
  for (const std::uint64_t c : cost) total += c;
  const std::uint64_t per =
      std::max<std::uint64_t>(1, total / std::max<std::size_t>(1, target));
  std::vector<VertexId> bounds{0};
  std::uint64_t acc = 0;
  for (std::size_t v = 0; v < n; ++v) {
    acc += cost[v] + 1;
    if (acc >= per && v + 1 < n) {
      bounds.push_back(static_cast<VertexId>(v + 1));
      acc = 0;
    }
  }
  bounds.push_back(static_cast<VertexId>(n));
  return bounds;
}

std::size_t ChunkTarget() {
  return static_cast<std::size_t>(DefaultThreads()) * 4;
}

}  // namespace

DodgGraph DodgGraph::Build(const Edge* edges, std::size_t count,
                           VertexId num_vertices, const Options& options) {
  DodgGraph g;
  const std::size_t n = num_vertices;

  // 1. Pack to 64-bit keys (u in the high half), validating the canonical
  //    invariant the binary reader and EdgeList both guarantee.
  std::vector<std::uint64_t> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Edge& e = edges[i];
    CHECK(e.u < e.v && e.v < num_vertices)
        << "non-canonical edge (" << e.u << ", " << e.v << ") at index " << i
        << " for vertex count " << num_vertices;
    keys[i] = e.Key();
  }

  // 2. Parallel in-place sort; duplicates become adjacent.
  ParallelSortKeys(keys);

  // 3. Fused dedup + degree count: one scan compacts unique edges in place
  //    and tallies both endpoint degrees.
  std::vector<VertexId> degree(n, 0);
  std::size_t m = 0;
  std::uint64_t prev = ~std::uint64_t{0};
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t k = keys[i];
    if (k == prev) continue;
    prev = k;
    keys[m++] = k;
    ++degree[static_cast<VertexId>(k >> 32)];
    ++degree[static_cast<VertexId>(k)];
  }
  keys.resize(m);

  // 4. Degree-descending relabel, ties by original id ascending: sort
  //    (~degree, id) pairs so position == new id.
  std::vector<std::uint64_t> rank(n);
  for (std::size_t v = 0; v < n; ++v) {
    rank[v] = (static_cast<std::uint64_t>(~degree[v]) << 32) | v;
  }
  ParallelSortKeys(rank);
  g.new_id_.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    g.new_id_[static_cast<VertexId>(rank[pos])] = static_cast<VertexId>(pos);
  }

  // 5. CSR by counting sort: offsets from the relabeled degrees, then one
  //    scatter pass over the unique edges fills both directions.
  g.offsets_.assign(n + 1, 0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const VertexId old_v = static_cast<VertexId>(rank[pos]);
    g.offsets_[pos + 1] = g.offsets_[pos] + degree[old_v];
    g.max_degree_ = std::max<std::size_t>(g.max_degree_, degree[old_v]);
  }
  g.adjacency_.resize(2 * m);
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const VertexId a = g.new_id_[static_cast<VertexId>(keys[i] >> 32)];
    const VertexId b = g.new_id_[static_cast<VertexId>(keys[i])];
    g.adjacency_[cursor[a]++] = b;
    g.adjacency_[cursor[b]++] = a;
  }

  // 6. Sort each row and record the out/up split (first neighbor > v);
  //    row-sort work is balanced by d·log d across contiguous chunks.
  g.split_.assign(n, 0);
  g.num_vertices_ = num_vertices;
  g.num_edges_ = m;
  if (n > 0) {
    std::vector<std::uint64_t> sort_cost(n);
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint64_t d = g.offsets_[v + 1] - g.offsets_[v];
      sort_cost[v] = d == 0 ? 0 : d * (64 - __builtin_clzll(d));
    }
    const std::vector<VertexId> bounds =
        CostBalancedBounds(sort_cost, ChunkTarget());
    ParallelFor(bounds.size() - 1, [&](std::size_t c) {
      for (VertexId v = bounds[c]; v < bounds[c + 1]; ++v) {
        VertexId* row = g.adjacency_.data() + g.offsets_[v];
        VertexId* end = g.adjacency_.data() + g.offsets_[v + 1];
        std::sort(row, end);
        g.split_[v] =
            g.offsets_[v] +
            static_cast<std::uint64_t>(std::lower_bound(row, end, v) - row);
      }
    });
  }

  // 7. Hub bitmaps: for new ids u < H every out-neighbor is itself < u < H,
  //    so an H-bit row per hub represents its out-neighborhood exactly.
  const VertexId h = options.hub_range == 0 ? kDefaultHubRange
                                            : options.hub_range;
  g.hub_range_ = static_cast<VertexId>(
      std::min<std::size_t>(h, static_cast<std::size_t>(num_vertices)));
  g.hub_words_ = (static_cast<std::size_t>(g.hub_range_) + 63) / 64;
  g.hub_bits_.assign(static_cast<std::size_t>(g.hub_range_) * g.hub_words_, 0);
  for (VertexId u = 0; u < g.hub_range_; ++u) {
    std::uint64_t* row = g.hub_bits_.data() + std::size_t{u} * g.hub_words_;
    for (const VertexId v : g.OutNeighbors(u)) {
      row[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
  }
  return g;
}

DodgGraph DodgGraph::Build(const EdgeList& edges, const Options& options) {
  return Build(edges.edges().data(), edges.num_edges(), edges.num_vertices(),
               options);
}

DodgGraph DodgGraph::FromPairs(
    VertexId num_vertices,
    const std::vector<std::pair<VertexId, VertexId>>& pairs,
    const Options& options) {
  std::vector<Edge> edges;
  edges.reserve(pairs.size());
  VertexId n = num_vertices;
  for (const auto& [a, b] : pairs) {
    if (a == b) continue;  // Self-loops cannot close a triangle or 4-cycle.
    edges.emplace_back(a, b);
    n = std::max({n, a + 1, b + 1});
  }
  return Build(edges.data(), edges.size(), n, options);
}

std::uint64_t DodgGraph::CountTriangles() const {
  const std::size_t n = num_vertices_;
  if (n == 0 || num_edges_ == 0) return 0;
  const KernelTable kernels = PickKernels();
  const VertexId h = hub_range_;

  // Cost per vertex: words ANDed for hub rows, merge length for the tail.
  std::vector<std::uint64_t> cost(n, 0);
  {
    const std::vector<VertexId> bounds = CostBalancedBounds(
        std::vector<std::uint64_t>(n, 1), ChunkTarget());
    ParallelFor(bounds.size() - 1, [&](std::size_t c) {
      for (VertexId u = bounds[c]; u < bounds[c + 1]; ++u) {
        const std::span<const VertexId> out_u = OutNeighbors(u);
        std::uint64_t acc = 0;
        if (u < h) {
          for (const VertexId v : out_u) acc += (v >> 6) + 1;
        } else {
          for (const VertexId v : out_u) {
            acc += out_u.size() + OutNeighbors(v).size();
          }
        }
        cost[u] = acc;
      }
    });
  }

  const std::vector<VertexId> bounds = CostBalancedBounds(cost, ChunkTarget());
  const std::vector<std::uint64_t> partial = ParallelMap(
      bounds.size() - 1, [&](std::size_t c) -> std::uint64_t {
        std::uint64_t sum = 0;
        for (VertexId u = bounds[c]; u < bounds[c + 1]; ++u) {
          const std::span<const VertexId> out_u = OutNeighbors(u);
          if (u < h) {
            const std::uint64_t* row_u =
                hub_bits_.data() + std::size_t{u} * hub_words_;
            for (const VertexId v : out_u) {
              // out(v) ⊆ [0, v), so words past v/64 are zero in row v.
              sum += kernels.and_popcount(
                  row_u, hub_bits_.data() + std::size_t{v} * hub_words_,
                  (static_cast<std::size_t>(v) >> 6) + 1);
            }
          } else {
            for (const VertexId v : out_u) {
              const std::span<const VertexId> out_v = OutNeighbors(v);
              sum += kernels.intersect(out_u.data(), out_u.size(),
                                       out_v.data(), out_v.size());
            }
          }
        }
        return sum;
      });
  return std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
}

std::uint64_t DodgGraph::CountFourCycles() const {
  const std::size_t n = num_vertices_;
  if (n == 0 || num_edges_ == 0) return 0;

  // Chiba–Nishizeki out-wedge enumeration: vertex u owns the 4-cycles in
  // which it has the minimum id. For each such u, count wedges u–v–w with
  // v, w > u; every pair of wedges sharing the far endpoint w closes one
  // owned cycle.
  std::vector<std::uint64_t> cost(n, 0);
  {
    const std::vector<VertexId> bounds = CostBalancedBounds(
        std::vector<std::uint64_t>(n, 1), ChunkTarget());
    ParallelFor(bounds.size() - 1, [&](std::size_t c) {
      for (VertexId u = bounds[c]; u < bounds[c + 1]; ++u) {
        std::uint64_t acc = 0;
        for (const VertexId v : UpNeighbors(u)) acc += Degree(v);
        cost[u] = acc;
      }
    });
  }

  const std::vector<VertexId> bounds = CostBalancedBounds(cost, ChunkTarget());
  const std::vector<std::uint64_t> partial = ParallelMap(
      bounds.size() - 1, [&](std::size_t c) -> std::uint64_t {
        std::vector<VertexId> wedge_count(n, 0);
        std::vector<VertexId> touched;
        std::uint64_t sum = 0;
        for (VertexId u = bounds[c]; u < bounds[c + 1]; ++u) {
          for (const VertexId v : UpNeighbors(u)) {
            const std::span<const VertexId> row = Neighbors(v);
            for (std::size_t i = GallopLowerBound(row, 0, u + 1);
                 i < row.size(); ++i) {
              const VertexId w = row[i];
              if (wedge_count[w]++ == 0) touched.push_back(w);
            }
          }
          for (const VertexId w : touched) {
            const std::uint64_t x = wedge_count[w];
            sum += x * (x - 1) / 2;
            wedge_count[w] = 0;
          }
          touched.clear();
        }
        return sum;
      });
  return std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
}

void SetExactSimdMode(ExactSimdMode mode) { g_simd_mode = mode; }

ExactSimdMode GetExactSimdMode() { return g_simd_mode; }

const char* ActiveExactKernels() { return PickKernels().name; }

}  // namespace cyclestream
