#ifndef CYCLESTREAM_ENGINE_QUERY_H_
#define CYCLESTREAM_ENGINE_QUERY_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/config.h"
#include "graph/types.h"
#include "sketch/sketch_backend.h"
#include "stream/driver.h"
#include "stream/dynamic/turnstile.h"

namespace cyclestream::engine {

/// The estimators the multi-query engine can host. A "query" is one small-
/// memory estimator riding the shared pass; the engine fans the same edge
/// (or adjacency) blocks out to every registered query, so N queries cost
/// one stream read per logical pass instead of N.
enum class QueryKind {
  // Edge-stream algorithms (triangles).
  kRandomOrderTriangles,
  kTriest,
  kCormodeJowhari,
  // Edge-stream algorithms (four-cycles).
  kArbF2,
  kArbThreePass,
  kBeraChakrabarti,
  // Adjacency-stream algorithms (four-cycles).
  kAdjDiamond,
  kAdjF2,
  kAdjL2,
  // Turnstile-stream algorithms (dynamic insert/delete model; linear
  // sketches, optionally windowed or decayed via the spec's window/decay
  // fields).
  kTurnstileF2Triangle,
  kTurnstileF2C4,
};

/// Stable CLI/manifest name ("random-order", "triest", ...).
std::string_view QueryKindName(QueryKind kind);

/// Inverse of QueryKindName; nullopt for unknown names.
std::optional<QueryKind> ParseQueryKind(std::string_view name);

/// True for kinds consuming edge streams (vs adjacency-list or turnstile
/// streams).
bool IsEdgeKind(QueryKind kind);

/// True for kinds consuming turnstile (insert/delete) streams.
bool IsTurnstileKind(QueryKind kind);

/// True for kinds whose state is a linear sketch of the edge stream — state
/// over a partitioned stream merges by addition (MergeFrom) into exactly
/// the whole-stream state, so the kind can run under the multi-process
/// shard coordinator. Currently only arb-f2 (Thm 5.7): its per-vertex
/// accumulators are sums of ±1 / ±1·±1 terms. The others are excluded for
/// cause: random-order/cormode-jowhari condition on stream *positions*
/// (prefix membership), triest's reservoir is an order-dependent sample,
/// and the multi-pass kinds need whole-stream passes.
bool IsShardMergeableKind(QueryKind kind);

/// "triangles" or "c4" — what the estimate approximates.
std::string_view QueryKindTarget(QueryKind kind);

/// True for kinds whose estimator reads `base.t_guess` (the T-up-to-a-
/// constant assumption of the paper's algorithms). False for arb-f2,
/// triest, and the turnstile kinds: their estimates are identical at any
/// t_guess, so front ends never need the exact oracle to run them.
bool NeedsTGuess(QueryKind kind);

/// One registered query: which estimator, its parameters, its seed, and the
/// word budget it declares to the admission layer. The spec is a pure value
/// — constructing the same spec twice yields algorithms with bit-identical
/// behavior, which is what makes engine runs comparable to standalone runs.
struct QuerySpec {
  std::string name;  // Unique within a batch; keys the manifest section.
  QueryKind kind = QueryKind::kRandomOrderTriangles;
  ApproxConfig base;  // epsilon, c, t_guess, seed.
  VertexId num_vertices = 0;
  // Kind-specific knobs (ignored by kinds that don't use them).
  double level_rate = -1.0;   // random-order: cv override.
  double prefix_rate = -1.0;  // random-order / cormode-jowhari: r override.
  std::size_t reservoir_capacity = 1000;  // triest: M.
  /// Declared peak-space budget in words; what the admission layer reserves
  /// against the aggregate budget. 0 = unbudgeted (admitted only when no
  /// aggregate budget is configured).
  std::size_t space_budget_words = 0;
  /// Update-path knobs for sketch-backed kinds (currently arb-f2): kBlock
  /// routes the broker's blocks through the batched kernels, intra_shards
  /// splits each block across that many pool workers. Pure throughput knobs
  /// — estimates and space audits are bit-identical at any setting, so
  /// neither is exported to the deterministic manifest.
  SketchBackend sketch_backend = SketchBackend::kScalar;
  int intra_shards = 1;
  /// Time-decay knobs (turnstile kinds only; window and decay are mutually
  /// exclusive — ValidateSpecWindowing enforces the constraints). All four
  /// change results, so they are spec-fingerprinted and exported to the
  /// deterministic manifest.
  /// window > 0 wraps the estimator in a sliding window over the last
  /// `window_edges` updates, bucketed into `window_buckets` sketch
  /// instances (window_edges must divide evenly).
  std::uint64_t window_edges = 0;
  std::uint64_t window_buckets = 8;
  /// decay_epoch_edges > 0 rescales the sketch by 2^-decay_log2 every
  /// epoch (decay_log2 in [1, 32], exact power-of-two factors only).
  std::uint64_t decay_epoch_edges = 0;
  std::uint32_t decay_log2 = 0;
};

/// Validates the window/decay fields against the kind: windowing requires a
/// turnstile kind, window and decay are mutually exclusive, window_buckets
/// must divide window_edges, and decay needs decay_log2 in [1, 32]. True
/// when consistent; false with a CLI-ready `*error` otherwise.
bool ValidateSpecWindowing(const QuerySpec& spec, std::string* error);

/// A constructed edge-stream query: the algorithm plus a result extractor
/// (each algorithm class exposes its own Result(); the closure erases that).
struct EdgeQuery {
  std::unique_ptr<EdgeStreamAlgorithm> algorithm;
  std::function<Estimate()> result;
};

/// Builds the algorithm for an edge-kind spec. Aborts on adjacency kinds.
EdgeQuery MakeEdgeQuery(const QuerySpec& spec);

/// A constructed adjacency-stream query.
struct AdjacencyQuery {
  std::unique_ptr<AdjacencyStreamAlgorithm> algorithm;
  std::function<Estimate()> result;
};

/// Builds the algorithm for an adjacency-kind spec. Aborts on edge kinds.
AdjacencyQuery MakeAdjacencyQuery(const QuerySpec& spec);

/// A constructed turnstile-stream query.
struct TurnstileQuery {
  std::unique_ptr<TurnstileStreamAlgorithm> algorithm;
  std::function<Estimate()> result;
};

/// Builds the algorithm for a turnstile-kind spec, wrapping it in the
/// sliding-window or decay layer when the spec asks for one. Aborts on
/// non-turnstile kinds and on windowing constraint violations (validate
/// with ValidateSpecWindowing first for a recoverable error).
TurnstileQuery MakeTurnstileQuery(const QuerySpec& spec);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_QUERY_H_
