// Microbenchmarks (google-benchmark) for the hot-path kernels behind the
// streaming counters: batched k-wise hashing (KWiseHashBank) against the
// scalar per-copy loop it replaced, the flat open-addressing wedge map
// against std::unordered_map, the sorted-adjacency intersection kernels,
// and the parallel wedge-vector computation. These are the fine-grained
// companions to bm_throughput's end-to-end suites; tools/bench_compare.py
// diffs their JSON output against the committed BENCH_baseline.json.

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "core/turnstile_f2.h"
#include "engine/coordinator.h"
#include "engine/query.h"
#include "engine/shard.h"
#include "gen/generators.h"
#include "graph/exact.h"
#include "graph/flat_map.h"
#include "graph/graph.h"
#include "graph/intersect.h"
#include "graph/types.h"
#include "hash/kwise.h"
#include "hash/kwise_bank.h"
#include "hash/kwise_kernels.h"
#include "hash/rng.h"
#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"
#include "stream/dynamic/turnstile.h"
#include "stream/order.h"
#include "stream/window/window.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace cyclestream {
namespace {

std::vector<std::uint64_t> BankSeeds(std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  std::uint64_t s = 0x5EEDULL;
  for (std::size_t i = 0; i < n; ++i) seeds[i] = SplitMix64(s);
  return seeds;
}

// --- Batched vs scalar k-wise hashing ------------------------------------

void BM_KWiseScalarEvalLoop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto seeds = BankSeeds(n);
  std::vector<KWiseHash> hashes;
  for (std::size_t i = 0; i < n; ++i) hashes.emplace_back(4, seeds[i]);
  std::vector<std::uint64_t> out(n);
  std::uint64_t key = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) out[i] = hashes[i](key);
    benchmark::DoNotOptimize(out.data());
    ++key;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KWiseScalarEvalLoop)->Arg(16)->Arg(128);

void BM_KWiseBankEvalAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const KWiseHashBank bank(4, BankSeeds(n));
  std::vector<std::uint64_t> out(n);
  std::uint64_t key = 0;
  for (auto _ : state) {
    bank.EvalAll(key++, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KWiseBankEvalAll)->Arg(16)->Arg(128);

// One replica's sign table: Arg(0) = k, Arg(1) = C copies, over n = 2000
// vertex keys; items are table entries.
void BM_KWiseBankSignTable(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kKeys = 2000;
  const KWiseHashBank bank(k, BankSeeds(n));
  std::vector<signed char> out(kKeys * n);
  for (auto _ : state) {
    bank.SignTable(kKeys, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKeys * n));
}
BENCHMARK(BM_KWiseBankSignTable)
    ->Args({4, 128})
    ->Args({4, 450})
    ->Args({6, 128})
    ->Args({6, 450});

void BM_KWiseBankAccumulateSigned(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const KWiseHashBank bank(4, BankSeeds(n));
  std::vector<double> counters(n, 0.0);
  std::uint64_t key = 0;
  for (auto _ : state) {
    bank.AccumulateSigned(key++, 1.0, counters.data());
    benchmark::DoNotOptimize(counters.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KWiseBankAccumulateSigned)->Arg(16)->Arg(128);

// --- Block-update sketch kernels ------------------------------------------
//
// Arg(0) on the *Block benchmarks selects the kernel tier: 0 forces the
// scalar twins, 1 is auto-dispatch (best SIMD tier the host supports). The
// per-edge benchmarks alongside are the baselines the ISSUE's speedup
// criteria are measured against.

SketchSimdMode TierFromArg(std::int64_t arg) {
  return arg == 0 ? SketchSimdMode::kScalar : SketchSimdMode::kAuto;
}

std::vector<std::uint64_t> BlockKeys(std::size_t count) {
  std::vector<std::uint64_t> keys(count);
  std::uint64_t s = 0xB10CULL;
  for (auto& k : keys) k = SplitMix64(s);
  return keys;
}

void BM_HashBlock(benchmark::State& state) {
  // 96 degree-3 polynomials over a 4096-key block (the broker block size):
  // the kernel behind AmsF2::UpdateBlock and CountSketch::UpdateBlock.
  SetSketchSimdMode(TierFromArg(state.range(0)));
  const std::size_t n = 96;
  const KWiseHashBank bank(4, BankSeeds(n));
  const auto keys = BlockKeys(4096);
  std::vector<std::uint64_t> out(n * keys.size());
  for (auto _ : state) {
    bank.EvalBlock(keys, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * keys.size()));
  SetSketchSimdMode(SketchSimdMode::kAuto);
}
BENCHMARK(BM_HashBlock)->Arg(0)->Arg(1);

void BM_AmsF2UpdatePerEdge(benchmark::State& state) {
  // Per-edge baseline: 9 groups x 128 copies = 1152 counters per update.
  AmsF2 sketch(9, 128, 1);
  const auto keys = BlockKeys(4096);
  for (auto _ : state) {
    for (const std::uint64_t k : keys) sketch.Update(k, 1.0);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_AmsF2UpdatePerEdge);

void BM_AmsF2UpdateBlock(benchmark::State& state) {
  SetSketchSimdMode(TierFromArg(state.range(0)));
  AmsF2 sketch(9, 128, 1);
  const auto keys = BlockKeys(4096);
  for (auto _ : state) {
    sketch.UpdateBlock(keys, 1.0);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
  SetSketchSimdMode(SketchSimdMode::kAuto);
}
BENCHMARK(BM_AmsF2UpdateBlock)->Arg(0)->Arg(1);

void BM_CountSketchUpdatePerEdge(benchmark::State& state) {
  // Per-edge baseline: depth 5, width 512.
  CountSketch sketch(5, 512, 7);
  const auto keys = BlockKeys(4096);
  for (auto _ : state) {
    for (const std::uint64_t k : keys) sketch.Update(k, 1.0);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_CountSketchUpdatePerEdge);

void BM_CountSketchUpdateBlock(benchmark::State& state) {
  SetSketchSimdMode(TierFromArg(state.range(0)));
  CountSketch sketch(5, 512, 7);
  const auto keys = BlockKeys(4096);
  for (auto _ : state) {
    sketch.UpdateBlock(keys, 1.0);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
  SetSketchSimdMode(SketchSimdMode::kAuto);
}
BENCHMARK(BM_CountSketchUpdateBlock)->Arg(0)->Arg(1);

// --- Turnstile & windowing (src/stream/dynamic, src/stream/window) --------

// A mixed insert/delete stream: every third edge of a G(n,m) graph is
// deleted again, so the signed update path is exercised on both signs.
TurnstileStream BenchTurnstileStream(VertexId* num_vertices) {
  Rng gen(47);
  const EdgeList graph = ErdosRenyiGnm(3000, 60000, gen);
  *num_vertices = graph.num_vertices();
  TurnstileStream stream = TurnstileFromEdges(graph.edges());
  for (std::size_t i = 0; i < graph.edges().size(); i += 3) {
    stream.emplace_back(graph.edges()[i], TurnstileOp::kDelete);
  }
  return stream;
}

// Signed update throughput of the turnstile triangle sketch through the
// per-update path, delivered as one block. The unused Arg(0) keeps the row
// name BENCH_baseline.json records.
void BM_TurnstileUpdate(benchmark::State& state) {
  TurnstileF2TriangleCounter::Params p;
  p.base.epsilon = 0.3;
  p.base.t_guess = 1000.0;
  p.base.seed = 77;
  TurnstileStream stream = BenchTurnstileStream(&p.num_vertices);
  for (auto _ : state) {
    TurnstileF2TriangleCounter alg(p);
    alg.StartPass(0, stream.size());
    alg.ProcessUpdateBlock(0, std::span<const TurnstileUpdate>(stream), 0);
    alg.EndPass(0);
    benchmark::DoNotOptimize(alg.Result());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_TurnstileUpdate)->Arg(0);

// Cost of a sliding-window Result(): a fresh factory instance plus
// MergeFrom folds of the live buckets (oldest -> newest). Arg = bucket
// count; the stream fill happens outside the timed loop.
void BM_WindowBucketMerge(benchmark::State& state) {
  const auto buckets = static_cast<std::uint64_t>(state.range(0));
  TurnstileF2TriangleCounter::Params p;
  p.base.epsilon = 0.3;
  p.base.t_guess = 1000.0;
  p.base.seed = 78;
  TurnstileStream stream = BenchTurnstileStream(&p.num_vertices);
  const std::uint64_t window = stream.size() - stream.size() % buckets;
  const TurnstileAlgorithmFactory factory = [&p] {
    return std::make_unique<TurnstileF2TriangleCounter>(p);
  };
  SlidingWindowAlgorithm alg(factory, factory()->CheckpointId(), window,
                             buckets);
  RunTurnstileStream(alg, stream);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg.Result());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(buckets));
}
BENCHMARK(BM_WindowBucketMerge)->Arg(2)->Arg(8)->Arg(32);

// --- Sharded coordinator (src/engine/shard, coordinator) ------------------

std::vector<engine::QuerySpec> ShardBenchSpecs(std::size_t count,
                                               std::uint32_t num_vertices) {
  std::vector<engine::QuerySpec> specs(count);
  for (std::size_t i = 0; i < count; ++i) {
    engine::QuerySpec& spec = specs[i];
    spec.name = "arb-f2-" + std::to_string(i);
    spec.kind = engine::QueryKind::kArbF2;
    spec.base.epsilon = 0.4;
    spec.base.t_guess = 1000.0;
    spec.base.seed = 500 + i;
    spec.num_vertices = num_vertices;
  }
  return specs;
}

// Merge cost alone: W pre-built shard state blobs folded into one fresh
// query via MergeState, exactly the coordinator's fold loop (FoldShardState).
// Arg = number of shard states.
void BM_ShardMerge(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  Rng gen(43);
  const EdgeList graph = ErdosRenyiGnm(3000, 60000, gen);
  Rng order(44);
  const EdgeStream stream = MakeRandomOrderStream(graph, order);
  const std::vector<engine::QuerySpec> specs =
      ShardBenchSpecs(1, graph.num_vertices());
  const std::vector<engine::ShardRange> ranges =
      engine::PartitionStream(stream.size(), workers);

  // Pre-serialize one state blob per shard, outside the timed loop.
  std::vector<std::string> blobs(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    engine::EdgeQuery query = engine::MakeEdgeQuery(specs[0]);
    query.algorithm->StartPass(0, stream.size());
    for (std::uint64_t i = ranges[w].begin; i < ranges[w].end; ++i) {
      const auto pos = static_cast<std::size_t>(i);
      query.algorithm->ProcessEdge(0, stream[pos], pos);
    }
    StateWriter writer;
    query.algorithm->SaveState(writer);
    blobs[w] = writer.Take();
  }

  // The fold alone: the fresh target and its finalize stay untimed.
  for (auto _ : state) {
    state.PauseTiming();
    engine::EdgeQuery merged = engine::MakeEdgeQuery(specs[0]);
    state.ResumeTiming();
    for (std::size_t w = 0; w < workers; ++w) {
      StateReader reader(blobs[w]);
      CHECK(merged.algorithm->MergeState(reader));
    }
    state.PauseTiming();
    benchmark::DoNotOptimize(merged.result());
    merged = {};
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(workers));
}
BENCHMARK(BM_ShardMerge)->Arg(2)->Arg(4)->Arg(8);

// End-to-end sharded ingest: W in-process workers over the same stream and
// query set, coordinator-merged. In-process launch runs the workers
// serially (it is the deterministic oracle mode — subprocess launch is the
// parallel one), so Arg>1 measures the coordinator's overhead per added
// shard (partition + per-shard state serialize/restore/merge) against the
// Arg(1) baseline, not wall-clock speedup.
void BM_ShardedIngestScaling(benchmark::State& state) {
  SetDefaultThreads(0);
  const int workers = static_cast<int>(state.range(0));
  Rng gen(45);
  const EdgeList graph = ErdosRenyiGnm(3000, 60000, gen);
  Rng order(46);
  const EdgeStream stream = MakeRandomOrderStream(graph, order);
  const std::vector<engine::QuerySpec> specs =
      ShardBenchSpecs(4, graph.num_vertices());

  const std::string dir = "/tmp/cyclestream_bm_shard";
  std::filesystem::create_directories(dir);
  engine::ShardPlanOptions options;
  options.num_workers = workers;
  options.shard_dir = dir;
  options.launch = engine::ShardLaunch::kInProcess;

  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine::RunShardedBatch(specs, std::span<const Edge>(stream), options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()) *
                          static_cast<std::int64_t>(specs.size()));
  SetDefaultThreads(0);
}
BENCHMARK(BM_ShardedIngestScaling)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// --- Flat wedge map vs std::unordered_map --------------------------------

// Wedge-like key mix: pair keys from a bounded vertex range with repeats.
std::vector<std::uint64_t> WedgeKeys(std::size_t count) {
  std::vector<std::uint64_t> keys(count);
  std::uint64_t s = 0xC0FFEEULL;
  for (std::size_t i = 0; i < count; ++i) {
    const auto a = static_cast<VertexId>(SplitMix64(s) % 2000);
    auto b = static_cast<VertexId>(SplitMix64(s) % 2000);
    if (b == a) b = (b + 1) % 2000;
    keys[i] = PairKey(a, b);
  }
  return keys;
}

void BM_UnorderedMapIncrement(benchmark::State& state) {
  const auto keys = WedgeKeys(1 << 16);
  for (auto _ : state) {
    std::unordered_map<std::uint64_t, std::uint32_t, Mix64Hash> map;
    for (const std::uint64_t k : keys) ++map[k];
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_UnorderedMapIncrement);

void BM_FlatMapIncrement(benchmark::State& state) {
  const auto keys = WedgeKeys(1 << 16);
  for (auto _ : state) {
    FlatMap64<std::uint32_t> map;
    for (const std::uint64_t k : keys) ++map[k];
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_FlatMapIncrement);

void BM_UnorderedMapLookup(benchmark::State& state) {
  const auto keys = WedgeKeys(1 << 16);
  std::unordered_map<std::uint64_t, std::uint32_t, Mix64Hash> map;
  for (const std::uint64_t k : keys) ++map[k];
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (const std::uint64_t k : keys) {
      const auto it = map.find(k);
      total += it == map.end() ? 0 : it->second;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_UnorderedMapLookup);

void BM_FlatMapLookup(benchmark::State& state) {
  const auto keys = WedgeKeys(1 << 16);
  FlatMap64<std::uint32_t> map;
  for (const std::uint64_t k : keys) ++map[k];
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (const std::uint64_t k : keys) {
      const std::uint32_t* v = map.find(k);
      total += v == nullptr ? 0 : *v;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_FlatMapLookup);

// --- Sorted intersection kernels -----------------------------------------

void BM_IntersectBalanced(benchmark::State& state) {
  // Two same-length sorted lists with ~50% overlap: the two-pointer path.
  std::vector<VertexId> a, b;
  for (VertexId i = 0; i < 4096; ++i) {
    a.push_back(2 * i);
    b.push_back(3 * i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersectionCount(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_IntersectBalanced);

void BM_IntersectSkewed(benchmark::State& state) {
  // |b| = 256·|a|: the galloping path (ratio ≥ kGallopRatio).
  std::vector<VertexId> a, b;
  for (VertexId i = 0; i < 64; ++i) a.push_back(1000 * i);
  for (VertexId i = 0; i < 64 * 256; ++i) b.push_back(7 * i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersectionCount(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size()));
}
BENCHMARK(BM_IntersectSkewed);

// --- Wedge-vector pipeline ------------------------------------------------

void BM_ComputeWedgeVector(benchmark::State& state) {
  SetDefaultThreads(static_cast<int>(state.range(0)));
  Rng rng(12);
  const Graph g(ErdosRenyiGnm(4000, 20000, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeWedgeVector(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(CountWedges(g)));
  SetDefaultThreads(0);
}
BENCHMARK(BM_ComputeWedgeVector)->Arg(1)->Arg(8)->UseRealTime();

void BM_PerEdgeFourCycleCounts(benchmark::State& state) {
  Rng rng(13);
  const Graph g(ErdosRenyiGnm(1500, 9000, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PerEdgeFourCycleCounts(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_PerEdgeFourCycleCounts);

}  // namespace
}  // namespace cyclestream

int main(int argc, char** argv) {
  cyclestream::bench::RequireOptimizedBuild("bm_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
