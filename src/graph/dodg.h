#ifndef CYCLESTREAM_GRAPH_DODG_H_
#define CYCLESTREAM_GRAPH_DODG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"

namespace cyclestream {

/// High-throughput exact counting on a Degree-Oriented Directed Graph.
///
/// DodgGraph is the only production exact counter: CountTriangles /
/// CountFourCycles in graph/exact.h build one, so every caller of exact
/// ground truth runs it. The naive oracles there (NaiveCountTriangles /
/// NaiveCountFourCycles) cap out at ~10 M edges/s (triangles) and ~2.7 M/s
/// (4-cycles) and stay only as the test reference (DESIGN.md §12):
///
///   1. the raw edge array is sorted in place in parallel (chunk sort +
///      pairwise merge rounds on the util/parallel pool),
///   2. deduplication, degree counting, and CSR construction happen in one
///      fused scan (self-loops are dropped, duplicates collapse),
///   3. vertices are relabeled in degree-descending order and every edge is
///      oriented from the higher new id to the lower one — out-neighbors of
///      any vertex therefore have smaller ids (hubs cluster near 0) and
///      out-degrees are bounded by O(√m),
///   4. triangles are counted per directed edge (u→v) as |N⁺(u) ∩ N⁺(v)|
///      with a two-range split: edges inside the hub range [0, H) intersect
///      precomputed H-bit adjacency bitmaps (AVX2 AND+popcount), everything
///      else runs the vectorized sorted-merge / galloping kernel,
///   5. 4-cycles use out-wedge enumeration in DODG order (Chiba–Nishizeki):
///      vertex u owns exactly the cycles in which it has the minimum id, so
///      every cycle is counted once, in O(Σ_e min-degree) total work.
///
/// Counts are exact 64-bit integers accumulated per cost-balanced vertex
/// chunk and reduced in chunk order, so results are bit-identical at every
/// thread count and across the scalar/AVX2 kernels (asserted by
/// tests/dodg_test.cc and the CI cpu-dispatch legs).
struct DodgOptions {
  /// Width H of the dense hub range. Vertices with new id < H store their
  /// out-neighborhood as an H-bit bitmap (out-neighbors of a hub are
  /// themselves hubs, so the bitmap is lossless). 0 = default (min(n,
  /// kDefaultHubRange)). Tests shrink it to force the sparse-tail kernels
  /// onto small graphs.
  VertexId hub_range = 0;
};

class DodgGraph {
 public:
  using Options = DodgOptions;

  static constexpr VertexId kDefaultHubRange = 8192;

  DodgGraph() = default;

  /// Builds from a raw edge array (for example straight out of a mmap'd
  /// binary edge stream, BinaryEdgeReader::edges() — no text parse, no
  /// EdgeList materialization). Edges must be canonical (u < v <
  /// num_vertices, the binary-reader invariant); duplicates are legal and
  /// collapse.
  static DodgGraph Build(const Edge* edges, std::size_t count,
                         VertexId num_vertices, const Options& options = Options());

  /// Builds from an EdgeList (finalized or not; duplicates collapse).
  static DodgGraph Build(const EdgeList& edges, const Options& options = Options());

  /// Builds from arbitrary raw pairs: self-loops are dropped, order is
  /// canonicalized, duplicates collapse, and the vertex count grows to
  /// cover every id — the same cleanup EdgeList::FromPairs performs, so the
  /// counts match the naive backend on dirty input too.
  static DodgGraph FromPairs(
      VertexId num_vertices,
      const std::vector<std::pair<VertexId, VertexId>>& pairs,
      const Options& options = Options());

  VertexId num_vertices() const { return num_vertices_; }
  /// Unique undirected edges after dedup.
  std::size_t num_edges() const { return num_edges_; }
  /// The dense hub range H actually in use.
  VertexId hub_range() const { return hub_range_; }
  /// Degree (full, undirected) of new id v.
  std::size_t Degree(VertexId v) const {
    return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
  }
  std::size_t MaxDegree() const { return max_degree_; }

  /// All neighbors of new id v, ascending.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }
  /// Neighbors with smaller new id (the DODG out-edges), ascending.
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            static_cast<std::size_t>(split_[v] - offsets_[v])};
  }
  /// Neighbors with larger new id, ascending.
  std::span<const VertexId> UpNeighbors(VertexId v) const {
    return {adjacency_.data() + split_[v],
            static_cast<std::size_t>(offsets_[v + 1] - split_[v])};
  }
  /// new_id[original_id] — the degree-descending relabeling.
  const std::vector<VertexId>& new_ids() const { return new_id_; }

  /// Exact triangle count (two-range dense/sparse intersection).
  std::uint64_t CountTriangles() const;
  /// Exact 4-cycle count (out-wedge enumeration in DODG order).
  std::uint64_t CountFourCycles() const;

 private:
  VertexId num_vertices_ = 0;
  std::size_t num_edges_ = 0;
  VertexId hub_range_ = 0;
  std::size_t max_degree_ = 0;
  std::vector<std::uint64_t> offsets_;  // n+1 row offsets into adjacency_.
  std::vector<VertexId> adjacency_;     // 2m neighbors, sorted per row.
  std::vector<std::uint64_t> split_;    // First up-neighbor index per row.
  std::vector<VertexId> new_id_;        // original id -> new id.
  std::vector<std::uint64_t> hub_bits_;  // H rows of ceil(H/64) words.
  std::size_t hub_words_ = 0;            // Words per hub bitmap row.
};

/// Runtime SIMD-dispatch control. kAuto picks AVX2 when both the build and
/// the CPU support it; kScalar forces the portable kernels (the CI
/// cpu-dispatch matrix builds with -DCYCLESTREAM_DISABLE_AVX2=ON instead,
/// which removes the AVX2 kernels entirely). Counts are bit-identical
/// either way; this exists so one test process can exercise both paths.
enum class ExactSimdMode { kAuto, kScalar };
void SetExactSimdMode(ExactSimdMode mode);
ExactSimdMode GetExactSimdMode();

/// Name of the kernel set the next count will use: "avx2" or "scalar".
/// Diagnostic only — keep it out of deterministic manifests, which are
/// compared byte-for-byte across ISAs.
const char* ActiveExactKernels();

}  // namespace cyclestream

#endif  // CYCLESTREAM_GRAPH_DODG_H_
