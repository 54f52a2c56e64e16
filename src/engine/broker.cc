#include "engine/broker.h"

#include <algorithm>
#include <utility>

#include "stream/driver.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace cyclestream::engine {
namespace {

// Per-stream-kind plumbing for the shared wave loop (mirrors the Kind
// structs in stream/driver.cc).
struct EdgeTraits {
  using Query = EdgeQuery;
  static Query Make(const QuerySpec& spec) { return MakeEdgeQuery(spec); }
  static void ProcessBlock(EdgeStreamAlgorithm& alg, int pass,
                           const Edge* items, std::size_t n,
                           std::size_t base_position) {
    alg.ProcessEdgeBlock(pass, std::span<const Edge>(items, n),
                         base_position);
  }
  static void Credit(ExternalRunStats& credit, std::uint64_t delivered) {
    credit.edges_processed += delivered;
  }
};

struct AdjacencyTraits {
  using Query = AdjacencyQuery;
  static Query Make(const QuerySpec& spec) { return MakeAdjacencyQuery(spec); }
  static void ProcessBlock(AdjacencyStreamAlgorithm& alg, int pass,
                           const AdjacencyList* items, std::size_t n,
                           std::size_t base_position) {
    for (std::size_t i = 0; i < n; ++i) {
      alg.ProcessList(pass, items[i], base_position + i);
    }
  }
  static void Credit(ExternalRunStats& credit, std::uint64_t delivered) {
    credit.lists_processed += delivered;
  }
};

struct TurnstileTraits {
  using Query = TurnstileQuery;
  static Query Make(const QuerySpec& spec) {
    return MakeTurnstileQuery(spec);
  }
  static void ProcessBlock(TurnstileStreamAlgorithm& alg, int pass,
                           const TurnstileUpdate* items, std::size_t n,
                           std::size_t base_position) {
    alg.ProcessUpdateBlock(pass, std::span<const TurnstileUpdate>(items, n),
                           base_position);
  }
  static void Credit(ExternalRunStats& credit, std::uint64_t delivered) {
    credit.updates_processed += delivered;
  }
};

// Block view over an in-memory adjacency stream, so the adjacency path
// shares the edge path's wave loop. (Adjacency lists are only ever
// in-memory; there is no binary adjacency format.)
class AdjacencyBlockSource {
 public:
  explicit AdjacencyBlockSource(const AdjacencyStream& stream)
      : stream_(stream) {}

  std::size_t size() const { return stream_.size(); }
  void Reset() { pos_ = 0; }
  const AdjacencyList* NextBlock(std::size_t max_items, std::size_t* count) {
    const std::size_t n = std::min(max_items, stream_.size() - pos_);
    *count = n;
    if (n == 0) return nullptr;
    const AdjacencyList* block = stream_.data() + pos_;
    pos_ += n;
    return block;
  }

 private:
  const AdjacencyStream& stream_;
  std::size_t pos_ = 0;
};

// The driver's audit cross-check (stream/driver.cc MaybeAuditSpace),
// replicated because the engine drives passes itself: after the final
// pass the state walk must agree exactly with the self-reported tracker.
// Returns true iff an audit actually ran (and passed — mismatches abort).
template <typename Alg>
bool MaybeAuditSpace(const Alg& alg) {
  if (!SpaceAuditEnabled()) return false;
  const SpaceTracker* tracker = alg.space_tracker();
  const std::size_t walked = alg.AuditSpace();
  if (tracker == nullptr || walked == kNoSpaceAudit) return false;
  CHECK_EQ(walked, tracker->Current())
      << "space audit failed: the state walk disagrees with the "
         "self-reported footprint (accounting bug)";
  CHECK_LE(walked, tracker->Peak())
      << "space audit failed: current footprint exceeds the recorded peak";
  return true;
}

// Runs one wave: constructs the admitted queries, drives every logical
// pass with a single physical read of `source`, and fills the outcomes.
template <typename Traits, typename Source>
void RunWave(Source& source, const BrokerOptions& options,
             const std::vector<QuerySpec>& specs,
             const std::vector<std::size_t>& slots, int wave,
             std::vector<QueryOutcome>& outcomes, EngineStats& stats) {
  using Query = typename Traits::Query;
  std::vector<Query> queries;
  queries.reserve(slots.size());
  for (std::size_t slot : slots) queries.push_back(Traits::Make(specs[slot]));

  int max_passes = 0;
  for (const Query& q : queries) {
    max_passes = std::max(max_passes, q.algorithm->NumPasses());
  }
  const std::size_t stream_length = source.size();
  std::vector<std::uint64_t> delivered(slots.size(), 0);

  for (int pass = 0; pass < max_passes; ++pass) {
    // Queries with fewer passes drop out of later physical reads.
    std::vector<std::size_t> active;  // Indices into `queries`.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (pass < queries[i].algorithm->NumPasses()) active.push_back(i);
    }
    for (std::size_t i : active) {
      queries[i].algorithm->StartPass(pass, stream_length);
    }

    // One physical read serves every active query. Fan-out is sharded by
    // query (slot qi → shard qi mod shards, each shard serial), so the
    // per-query call sequence is the exact standalone sequence — the block
    // barrier only bounds how far queries can drift apart in the stream.
    ++stats.physical_passes;
    const std::size_t shards =
        std::min(active.size(), static_cast<std::size_t>(DefaultThreads()));
    source.Reset();
    std::size_t base = 0;
    std::size_t n = 0;
    for (const auto* block = source.NextBlock(options.block_size, &n);
         block != nullptr; block = source.NextBlock(options.block_size, &n)) {
      stats.source_items_read += n;
      ParallelFor(shards, [&](std::size_t shard) {
        for (std::size_t qi = shard; qi < active.size(); qi += shards) {
          Traits::ProcessBlock(*queries[active[qi]].algorithm, pass, block, n,
                               base);
          delivered[active[qi]] += n;
        }
      });
      stats.items_delivered += static_cast<std::uint64_t>(n) * active.size();
      base += n;
    }
    CHECK_EQ(base, stream_length)
        << "EdgeSource delivered a different stream length than size()";

    for (std::size_t i : active) queries[i].algorithm->EndPass(pass);
  }

  // Finalize in registration order on the caller thread.
  ExternalRunStats credit;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Query& q = queries[i];
    QueryOutcome& out = outcomes[slots[i]];
    if (MaybeAuditSpace(*q.algorithm)) ++credit.audits_passed;
    out.admission = AdmissionOutcome::kAdmitted;
    out.wave = wave;
    out.estimate = q.result();
    out.passes = q.algorithm->NumPasses();
    out.items_delivered = delivered[i];
    if (const SpaceTracker* tracker = q.algorithm->space_tracker()) {
      out.space_peak_components = tracker->PeakComponents();
    }
    ++credit.runs;
    credit.passes += static_cast<std::uint64_t>(out.passes);
    Traits::Credit(credit, delivered[i]);
  }
  AddExternalRunStats(credit);
}

}  // namespace

const Edge* VectorEdgeSource::NextBlock(std::size_t max_edges,
                                        std::size_t* count) {
  const std::size_t n = std::min(max_edges, stream_.size() - pos_);
  *count = n;
  if (n == 0) return nullptr;
  const Edge* block = stream_.data() + pos_;
  pos_ += n;
  return block;
}

const Edge* BinaryEdgeSource::NextBlock(std::size_t max_edges,
                                        std::size_t* count) {
  const std::size_t n = std::min(max_edges, reader_.num_edges() - pos_);
  *count = n;
  if (n == 0) return nullptr;
  const Edge* block = reader_.edges() + pos_;
  pos_ += n;
  return block;
}

const TurnstileUpdate* VectorTurnstileSource::NextBlock(
    std::size_t max_updates, std::size_t* count) {
  const std::size_t n = std::min(max_updates, stream_.size() - pos_);
  *count = n;
  if (n == 0) return nullptr;
  const TurnstileUpdate* block = stream_.data() + pos_;
  pos_ += n;
  return block;
}

StreamBroker::StreamBroker(const BrokerOptions& options) : options_(options) {
  CHECK_GT(options_.block_size, 0u) << "BrokerOptions::block_size must be > 0";
}

std::size_t StreamBroker::AddQuery(QuerySpec spec) {
  CHECK(!ran_) << "StreamBroker is one-shot; register before Run*Queries";
  CHECK(!spec.name.empty()) << "QuerySpec::name must be set";
  for (const QuerySpec& existing : specs_) {
    CHECK(existing.name != spec.name)
        << "duplicate query name '" << spec.name << "'";
  }
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

template <typename Traits, typename Source>
std::vector<QueryOutcome> StreamBroker::RunBatch(Source& source) {
  CHECK(!ran_) << "StreamBroker is one-shot; construct a new broker";
  ran_ = true;

  std::vector<QueryOutcome> outcomes(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) outcomes[i].spec = specs_[i];

  RunAdmissionWaves(options_.budget, specs_, stats_,
                    [&](int wave, const std::vector<std::size_t>& admitted,
                        const std::vector<std::size_t>& /*queued*/) {
                      RunWave<Traits>(source, options_, specs_, admitted,
                                      wave, outcomes, stats_);
                      return true;
                    });
  return outcomes;
}

std::vector<QueryOutcome> StreamBroker::RunEdgeQueries(EdgeSource& source) {
  for (const QuerySpec& spec : specs_) {
    CHECK(IsEdgeKind(spec.kind))
        << "RunEdgeQueries: query '" << spec.name << "' has adjacency kind "
        << QueryKindName(spec.kind);
  }
  return RunBatch<EdgeTraits>(source);
}

std::vector<QueryOutcome> StreamBroker::RunEdgeQueries(
    const EdgeStream& stream) {
  VectorEdgeSource source(stream);
  return RunEdgeQueries(source);
}

std::vector<QueryOutcome> StreamBroker::RunAdjacencyQueries(
    const AdjacencyStream& stream) {
  for (const QuerySpec& spec : specs_) {
    CHECK(!IsEdgeKind(spec.kind))
        << "RunAdjacencyQueries: query '" << spec.name << "' has edge kind "
        << QueryKindName(spec.kind);
  }
  AdjacencyBlockSource source(stream);
  return RunBatch<AdjacencyTraits>(source);
}

std::vector<QueryOutcome> StreamBroker::RunTurnstileQueries(
    TurnstileSource& source) {
  for (const QuerySpec& spec : specs_) {
    CHECK(IsTurnstileKind(spec.kind))
        << "RunTurnstileQueries: query '" << spec.name
        << "' has non-turnstile kind " << QueryKindName(spec.kind);
  }
  return RunBatch<TurnstileTraits>(source);
}

std::vector<QueryOutcome> StreamBroker::RunTurnstileQueries(
    const TurnstileStream& stream) {
  VectorTurnstileSource source(stream);
  return RunTurnstileQueries(source);
}

void ExportToManifest(const std::vector<QueryOutcome>& outcomes,
                      const EngineStats& stats, RunManifest& manifest) {
  MetricsRegistry& m = manifest.metrics();
  m.SetInt("engine.source_items_read",
           static_cast<std::int64_t>(stats.source_items_read));
  m.SetInt("engine.items_delivered",
           static_cast<std::int64_t>(stats.items_delivered));
  m.SetInt("engine.physical_passes",
           static_cast<std::int64_t>(stats.physical_passes));
  m.SetInt("engine.waves", static_cast<std::int64_t>(stats.waves));
  m.SetInt("engine.queries", static_cast<std::int64_t>(outcomes.size()));
  m.SetInt("engine.queries_admitted",
           static_cast<std::int64_t>(stats.queries_admitted));
  m.SetInt("engine.queries_queued",
           static_cast<std::int64_t>(stats.queries_queued));
  m.SetInt("engine.queries_rejected",
           static_cast<std::int64_t>(stats.queries_rejected));
  m.SetInt("engine.budget_peak_words",
           static_cast<std::int64_t>(stats.budget_peak_words));

  for (const QueryOutcome& out : outcomes) {
    MetricsRegistry q;
    q.SetStr("kind", std::string(QueryKindName(out.spec.kind)));
    q.SetStr("target", std::string(QueryKindTarget(out.spec.kind)));
    q.SetStr("admission", std::string(AdmissionOutcomeName(out.admission)));
    q.SetInt("wave", out.wave);
    q.SetInt("seed", static_cast<std::int64_t>(out.spec.base.seed));
    q.SetInt("budget_words",
             static_cast<std::int64_t>(out.spec.space_budget_words));
    // Window/decay knobs change results, so they belong in the
    // deterministic section.
    if (out.spec.window_edges > 0) {
      q.SetInt("window", static_cast<std::int64_t>(out.spec.window_edges));
      q.SetInt("window_buckets",
               static_cast<std::int64_t>(out.spec.window_buckets));
    }
    if (out.spec.decay_epoch_edges > 0) {
      q.SetInt("decay_epoch",
               static_cast<std::int64_t>(out.spec.decay_epoch_edges));
      q.SetInt("decay_log2", static_cast<std::int64_t>(out.spec.decay_log2));
    }
    if (out.poisoned) {
      // A poisoned wave has no trustworthy estimate; publish the marker and
      // nothing else, so a consumer can never mistake the zero-initialized
      // estimate for a result.
      q.SetInt("poisoned", 1);
    } else if (out.admission == AdmissionOutcome::kAdmitted) {
      q.Set("estimate", out.estimate.value);
      q.SetInt("space_words", static_cast<std::int64_t>(out.estimate.space_words));
      q.SetInt("passes", out.passes);
      q.SetInt("items_delivered",
               static_cast<std::int64_t>(out.items_delivered));
      for (const auto& [component, words] : out.space_peak_components) {
        q.SetInt("space." + component, static_cast<std::int64_t>(words));
      }
    }
    manifest.AddQuerySection(out.spec.name, std::move(q));
  }
}

}  // namespace cyclestream::engine
