#ifndef CYCLESTREAM_ENGINE_BROKER_H_
#define CYCLESTREAM_ENGINE_BROKER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "engine/budget.h"
#include "engine/query.h"
#include "graph/binary_io.h"
#include "stream/order.h"

namespace cyclestream {
class RunManifest;
}  // namespace cyclestream

namespace cyclestream::engine {

/// Abstract block-oriented edge supplier for the broker's shared pass. One
/// Reset() + NextBlock() drain is one physical read of the stream; the
/// broker counts those reads so tests can assert "N queries, one read per
/// logical pass". Blocks are zero-copy views — valid until the next
/// NextBlock()/Reset() on the same source.
class EdgeSource {
 public:
  virtual ~EdgeSource() = default;

  /// Total stream length (edges per full pass). Known up front: every
  /// algorithm's StartPass takes the stream length.
  virtual std::size_t size() const = 0;

  /// Rewinds to the beginning of the stream (start of a physical pass).
  virtual void Reset() = 0;

  /// Returns a pointer to the next block of at most `max_edges` edges and
  /// stores the block's length in `*count`. Returns nullptr (count 0) at
  /// end of stream.
  virtual const Edge* NextBlock(std::size_t max_edges, std::size_t* count) = 0;
};

/// EdgeSource over an in-memory stream (EdgeStream is vector<Edge>).
/// Borrows the vector — it must outlive the source.
class VectorEdgeSource : public EdgeSource {
 public:
  explicit VectorEdgeSource(const EdgeStream& stream) : stream_(stream) {}

  std::size_t size() const override { return stream_.size(); }
  void Reset() override { pos_ = 0; }
  const Edge* NextBlock(std::size_t max_edges, std::size_t* count) override;

 private:
  const EdgeStream& stream_;
  std::size_t pos_ = 0;
};

/// EdgeSource over a validated mmap'd binary edge stream (zero-copy ingest:
/// blocks point straight into the mapping). Borrows the reader.
class BinaryEdgeSource : public EdgeSource {
 public:
  explicit BinaryEdgeSource(const BinaryEdgeReader& reader)
      : reader_(reader) {}

  std::size_t size() const override { return reader_.num_edges(); }
  void Reset() override { pos_ = 0; }
  const Edge* NextBlock(std::size_t max_edges, std::size_t* count) override;

 private:
  const BinaryEdgeReader& reader_;
  std::size_t pos_ = 0;
};

/// Abstract block-oriented turnstile-update supplier — the EdgeSource shape
/// over insert/delete records. Turnstile algorithms are single-pass, but the
/// source keeps Reset() so it slots into the same wave loop.
class TurnstileSource {
 public:
  virtual ~TurnstileSource() = default;

  /// Total stream length (updates per pass).
  virtual std::size_t size() const = 0;

  /// Rewinds to the beginning of the stream.
  virtual void Reset() = 0;

  /// Returns a pointer to the next block of at most `max_updates` updates
  /// and stores the block's length in `*count`. Returns nullptr (count 0)
  /// at end of stream.
  virtual const TurnstileUpdate* NextBlock(std::size_t max_updates,
                                           std::size_t* count) = 0;
};

/// TurnstileSource over an in-memory stream (the shape TurnstileBinaryReader
/// decodes into). Borrows the vector — it must outlive the source.
class VectorTurnstileSource : public TurnstileSource {
 public:
  explicit VectorTurnstileSource(const TurnstileStream& stream)
      : stream_(stream) {}

  std::size_t size() const override { return stream_.size(); }
  void Reset() override { pos_ = 0; }
  const TurnstileUpdate* NextBlock(std::size_t max_updates,
                                   std::size_t* count) override;

 private:
  const TurnstileStream& stream_;
  std::size_t pos_ = 0;
};

/// Broker tuning.
struct BrokerOptions {
  /// Edges (or adjacency lists) per fan-out block. Blocks amortize the
  /// per-dispatch synchronization without affecting results: per-query
  /// delivery order is the stream order regardless of block size.
  std::size_t block_size = 4096;
  /// Admission policy; default (zeros) admits everything in one wave.
  BudgetPolicy budget;
};

/// Result of one query after its wave ran (or didn't).
struct QueryOutcome {
  QuerySpec spec;
  /// Final admission state: kAdmitted (the query ran — possibly after
  /// queuing; see `wave`) or kRejected. kQueued is transient and never the
  /// final state of a completed batch.
  AdmissionOutcome admission = AdmissionOutcome::kRejected;
  /// Which wave ran it (0-based; > 0 means it was queued at least once);
  /// -1 for rejected queries.
  int wave = -1;
  /// The estimator's result; zero-initialized for rejected queries.
  Estimate estimate;
  int passes = 0;  // The algorithm's own NumPasses().
  std::uint64_t items_delivered = 0;  // ProcessEdge/ProcessList calls.
  /// Peak-space component breakdown (empty if the algorithm lacks a
  /// tracker or was rejected).
  std::map<std::string, std::size_t, std::less<>> space_peak_components;
  /// Supervised runs only: the query's wave exhausted its retry budget and
  /// was abandoned without a result (estimate is zero-initialized). The
  /// broker and coordinator never poison — they abort instead.
  bool poisoned = false;
};

/// Multi-query stream engine: registers N QuerySpecs, then makes a single
/// physical pass (per logical pass number, per wave) over the stream and
/// fans each block out to every admitted query.
///
/// Determinism contract: each query's state is private and its edges arrive
/// in stream order with the same positions RunEdgeStream would use, so each
/// query is bit-identical to a standalone run of the same spec over the same
/// stream — at any thread count and any block size. Parallelism comes from
/// pinning queries to shards (query slot s → shard s mod num_shards, each
/// shard processed serially by one ParallelFor index), which parallelizes
/// *across* queries, never within one.
///
/// Scheduling: queries run in waves. Wave 0 takes every spec the admission
/// controller admits immediately; queued specs retry (in registration
/// order) each time a wave completes and releases its reservations. Each
/// wave costs max(NumPasses among its queries) physical stream reads.
/// Rejected specs never run and report zeroed estimates.
///
/// One-shot: Run*Queries may be called once per broker instance.
class StreamBroker {
 public:
  explicit StreamBroker(const BrokerOptions& options = BrokerOptions());

  /// Registers a query; returns its slot index. Names must be unique (they
  /// key the manifest sections); duplicates abort.
  std::size_t AddQuery(QuerySpec spec);

  /// Runs every registered edge-kind query over `source`. Aborts if any
  /// registered spec has an adjacency kind. Outcomes are in registration
  /// order.
  std::vector<QueryOutcome> RunEdgeQueries(EdgeSource& source);

  /// Convenience overload over an in-memory stream.
  std::vector<QueryOutcome> RunEdgeQueries(const EdgeStream& stream);

  /// Runs every registered adjacency-kind query over `stream`. Aborts if
  /// any registered spec has an edge kind.
  std::vector<QueryOutcome> RunAdjacencyQueries(const AdjacencyStream& stream);

  /// Runs every registered turnstile-kind query over `source`. Aborts if
  /// any registered spec has a non-turnstile kind. The same determinism
  /// contract as the edge path: each query sees the updates in stream order
  /// at the standalone positions, so windowed/decayed estimates are
  /// bit-identical at any thread count and block size.
  std::vector<QueryOutcome> RunTurnstileQueries(TurnstileSource& source);

  /// Convenience overload over an in-memory turnstile stream.
  std::vector<QueryOutcome> RunTurnstileQueries(const TurnstileStream& stream);

  /// Valid after a Run*Queries call.
  const EngineStats& stats() const { return stats_; }

 private:
  template <typename Traits, typename Source>
  std::vector<QueryOutcome> RunBatch(Source& source);

  BrokerOptions options_;
  std::vector<QuerySpec> specs_;
  EngineStats stats_;
  bool ran_ = false;
};

/// Exports a batch into a manifest: aggregate counters under "engine." in
/// the main metrics, plus one per-query section (estimate, space breakdown,
/// admission outcome) keyed by the query's name. Everything exported here
/// is deterministic — it survives DeterministicJson().
void ExportToManifest(const std::vector<QueryOutcome>& outcomes,
                      const EngineStats& stats, RunManifest& manifest);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_BROKER_H_
