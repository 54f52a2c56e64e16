// perfbench_trace — the end-to-end benchmark's in-process layer probe.
//
//   perfbench_trace info
//   perfbench_trace setup --graph G.bin --spec S.txt [workload flags]
//   perfbench_trace trace --graph G.bin --spec S.txt [workload flags]
//                         --out SPANS.json
//
// Workload flags mirror the CLI run being explained: --threads N,
// --order shuffled|file, --seed S (the CLI's order seed), --shards W,
// --shard-dir DIR and --cli BIN (the worker binary for W > 1).
//
// `setup` replays what the CLI does before its first ingest call — load or
// decode, Graph build, stream ordering, the exact oracle for specs that
// leave t_guess to the CLI default, and query construction — and prints the
// elapsed seconds. `trace` replays the whole CLI path (setup, then the
// broker or the shard coordinator, then the manifest export) and afterwards
// probes the layers one at a time: each spec as a serial query, and for
// W > 1 the shard worker, the state codec and the merge. Every call is
// wrapped in a span (name, start, end, parent) kept in memory and written
// to --out when the run ends. A span whose layer the workload never
// reaches is still opened at that layer's boundary, so it reads the cost of
// an empty span rather than being absent.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/broker.h"
#include "engine/coordinator.h"
#include "engine/query.h"
#include "engine/shard.h"
#include "engine/spec.h"
#include "graph/binary_io.h"
#include "graph/edge_list.h"
#include "graph/exact.h"
#include "graph/graph.h"
#include "hash/rng.h"
#include "stream/checkpoint.h"
#include "stream/dynamic/turnstile.h"
#include "stream/dynamic/turnstile_io.h"
#include "stream/order.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace cyclestream {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBlockEdges = 4096;  // The CLI's --block-edges default.

/// One timed call: seconds since the tracer started, and the index of the
/// span that was open when it began (-1 for a root).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// Collects spans in memory; RunTrace writes them out when the run ends.
class Tracer {
 public:
  int Open(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{std::move(name), Now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void Close(int id) {
    CHECK(!stack_.empty() && stack_.back() == id) << "spans must nest";
    stack_.pop_back();
    spans_[static_cast<std::size_t>(id)].end = Now();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.Open(std::move(name))) {}
  ~ScopedSpan() { tracer_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Every kind the benchmark's workloads run; each gets an update and a
/// finalize span in every traced run, empty when the workload lacks it.
constexpr std::string_view kProbedKinds[] = {
    "random-order", "triest",      "cormode-jowhari",
    "arb-f2",       "adj-diamond", "adj-f2",
    "adj-l2",       "turnstile-f2-triangle", "turnstile-f2-c4"};

enum class Family { kEdge, kAdjacency, kTurnstile };

Family FamilyOf(engine::QueryKind kind) {
  if (engine::IsTurnstileKind(kind)) return Family::kTurnstile;
  return engine::IsEdgeKind(kind) ? Family::kEdge : Family::kAdjacency;
}

bool IsBaselineKind(engine::QueryKind kind) {
  return kind == engine::QueryKind::kTriest ||
         kind == engine::QueryKind::kCormodeJowhari ||
         kind == engine::QueryKind::kBeraChakrabarti;
}

/// Span names of one spec's serial update and result() calls.
std::pair<std::string, std::string> SerialSpanNames(
    const engine::QuerySpec& spec) {
  if (spec.window_edges > 0) {
    return {"stream.window.update", "stream.window.result"};
  }
  const std::string layer = IsBaselineKind(spec.kind) ? "baselines" : "core";
  const std::string kind(engine::QueryKindName(spec.kind));
  return {layer + ".update." + kind, layer + ".finalize." + kind};
}

/// The workload the CLI run executes, as flags.
struct Workload {
  std::string graph_path;
  std::vector<engine::QuerySpec> specs;
  Family family = Family::kEdge;
  int threads = 1;
  bool shuffled = true;
  std::uint64_t seed = 1;
  int shards = 1;
  std::string shard_dir;
  std::string cli;
};

/// Everything the CLI holds once setup is done. The reader owns the mmap
/// that file-order streams point into.
struct Prepared {
  BinaryEdgeReader reader;
  EdgeList graph;
  std::optional<Graph> g;
  TurnstileStream turnstile;
  EdgeStream edge_stream;
  AdjacencyStream adjacency_stream;
  std::vector<engine::QuerySpec> specs;  // num_vertices and t_guess filled.
};

/// The CLI's setup phase, span by span, in the CLI's order. Every span is
/// opened for every family so absent layers read as empty spans.
void RunSetup(const Workload& w, Tracer& tracer, Prepared* p) {
  ScopedSpan setup(tracer, "setup");
  std::string error;
  VertexId stream_vertices = 0;
  {
    ScopedSpan span(tracer, "stream.dynamic.decode");
    if (w.family == Family::kTurnstile) {
      TurnstileBinaryReader reader;
      CHECK(reader.Open(w.graph_path, &error)) << error;
      stream_vertices = reader.num_vertices();
      p->turnstile = reader.TakeStream();
    }
  }
  std::vector<Edge> live;
  {
    ScopedSpan span(tracer, "stream.dynamic.live");
    if (w.family == Family::kTurnstile) live = LiveEdges(p->turnstile);
  }
  {
    ScopedSpan span(tracer, "graph.load");
    if (w.family == Family::kTurnstile) {
      p->graph = EdgeList(stream_vertices);
      for (const Edge& e : live) p->graph.Add(e.u, e.v);
      p->graph.Finalize();
    } else {
      CHECK(p->reader.Open(w.graph_path, &error)) << error;
      p->graph = p->reader.ToEdgeList();
    }
  }
  {
    ScopedSpan span(tracer, "graph.build");
    p->g.emplace(p->graph);
  }
  p->specs = w.specs;
  {
    // ExactCache: one count per target, only for specs without t_guess.
    ScopedSpan span(tracer, "graph.exact");
    std::map<std::string_view, double> exact;
    for (engine::QuerySpec& spec : p->specs) {
      if (spec.num_vertices == 0) {
        spec.num_vertices = w.family == Family::kTurnstile
                                ? stream_vertices
                                : p->g->num_vertices();
      }
      if (spec.base.t_guess > 1.0) continue;
      const std::string_view target = engine::QueryKindTarget(spec.kind);
      auto it = exact.find(target);
      if (it == exact.end()) {
        const double count =
            target == "triangles"
                ? static_cast<double>(CountTriangles(*p->g))
                : static_cast<double>(CountFourCycles(*p->g));
        it = exact.emplace(target, count).first;
      }
      spec.base.t_guess = std::max(1.0, it->second);
    }
  }
  {
    ScopedSpan span(tracer, "stream.order");
    Rng order_rng(w.seed ^ 0x5eedULL);
    if (w.family == Family::kAdjacency) {
      p->adjacency_stream = MakeAdjacencyStream(*p->g, order_rng);
    } else if (w.family == Family::kEdge && w.shuffled) {
      p->edge_stream = MakeRandomOrderStream(p->graph, order_rng);
    }
  }
  {
    // The broker and the shard workers construct their own queries; this
    // is that construction (sign caches included) on its own.
    ScopedSpan span(tracer, "engine.setup");
    for (const engine::QuerySpec& spec : p->specs) {
      switch (w.family) {
        case Family::kEdge:
          (void)engine::MakeEdgeQuery(spec);
          break;
        case Family::kAdjacency:
          (void)engine::MakeAdjacencyQuery(spec);
          break;
        case Family::kTurnstile:
          (void)engine::MakeTurnstileQuery(spec);
          break;
      }
    }
  }
}

std::span<const Edge> FileOrderEdges(const Prepared& p) {
  return std::span<const Edge>(p.reader.edges(), p.reader.num_edges());
}

std::vector<engine::QueryOutcome> RunBroker(const Workload& w,
                                            Prepared& p) {
  engine::StreamBroker broker;
  for (const engine::QuerySpec& spec : p.specs) broker.AddQuery(spec);
  switch (w.family) {
    case Family::kEdge:
      if (w.shuffled) return broker.RunEdgeQueries(p.edge_stream);
      {
        engine::BinaryEdgeSource source(p.reader);
        return broker.RunEdgeQueries(source);
      }
    case Family::kAdjacency:
      return broker.RunAdjacencyQueries(p.adjacency_stream);
    case Family::kTurnstile:
      return broker.RunTurnstileQueries(p.turnstile);
  }
  return {};
}

engine::ShardPlanOptions ShardPlan(const Workload& w) {
  engine::ShardPlanOptions plan;
  plan.num_workers = w.shards;
  plan.block_edges = kBlockEdges;
  plan.shard_dir = w.shard_dir;
  plan.launch = engine::ShardLaunch::kSubprocess;
  plan.worker_binary = w.cli;
  plan.stream_path = w.graph_path;
  return plan;
}

/// One spec as a standalone serial query over the prepared stream.
void RunSerialQuery(const Workload& w, const Prepared& p,
                    const engine::QuerySpec& spec, Tracer& tracer) {
  const auto [update_name, result_name] = SerialSpanNames(spec);
  switch (w.family) {
    case Family::kEdge: {
      engine::EdgeQuery q = engine::MakeEdgeQuery(spec);
      const std::span<const Edge> edges =
          w.shuffled ? std::span<const Edge>(p.edge_stream) : FileOrderEdges(p);
      {
        ScopedSpan span(tracer, update_name);
        for (int pass = 0; pass < q.algorithm->NumPasses(); ++pass) {
          q.algorithm->StartPass(pass, edges.size());
          for (std::size_t i = 0; i < edges.size(); i += kBlockEdges) {
            q.algorithm->ProcessEdgeBlock(
                pass, edges.subspan(i, std::min(kBlockEdges, edges.size() - i)),
                i);
          }
          q.algorithm->EndPass(pass);
        }
      }
      ScopedSpan span(tracer, result_name);
      (void)q.result();
      break;
    }
    case Family::kAdjacency: {
      engine::AdjacencyQuery q = engine::MakeAdjacencyQuery(spec);
      const AdjacencyStream& lists = p.adjacency_stream;
      {
        ScopedSpan span(tracer, update_name);
        for (int pass = 0; pass < q.algorithm->NumPasses(); ++pass) {
          q.algorithm->StartPass(pass, lists.size());
          for (std::size_t i = 0; i < lists.size(); ++i) {
            q.algorithm->ProcessList(pass, lists[i], i);
          }
          q.algorithm->EndPass(pass);
        }
      }
      ScopedSpan span(tracer, result_name);
      (void)q.result();
      break;
    }
    case Family::kTurnstile: {
      engine::TurnstileQuery q = engine::MakeTurnstileQuery(spec);
      const std::span<const TurnstileUpdate> updates(p.turnstile);
      {
        ScopedSpan span(tracer, update_name);
        q.algorithm->StartPass(0, updates.size());
        for (std::size_t i = 0; i < updates.size(); i += kBlockEdges) {
          q.algorithm->ProcessUpdateBlock(
              0, updates.subspan(i, std::min(kBlockEdges, updates.size() - i)),
              i);
        }
        q.algorithm->EndPass(0);
      }
      ScopedSpan span(tracer, result_name);
      (void)q.result();
      break;
    }
  }
}

/// The shard path taken apart: W in-process workers over their slices
/// (each writes its final state like a subprocess would), then the
/// coordinator's read/decode, a re-encode/re-write of the same states, and
/// the merge. Returns the merged estimates in spec order.
std::vector<double> ProbeShardLayers(const Workload& w, const Prepared& p,
                                     Tracer& tracer,
                                     std::uint64_t* state_bytes) {
  if (w.shards <= 1) {
    for (const char* name :
         {"engine.shard.worker", "engine.state.read", "engine.state.decode",
          "engine.state.encode", "engine.state.write", "engine.state.merge"}) {
      ScopedSpan span(tracer, name);
    }
    return {};
  }
  const std::size_t workers = static_cast<std::size_t>(w.shards);
  const std::span<const Edge> edges = FileOrderEdges(p);
  const std::vector<engine::ShardRange> ranges =
      engine::PartitionStream(edges.size(), w.shards);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < workers; ++i) {
    paths.push_back(w.shard_dir + "/probe-" + std::to_string(i) + ".state");
  }
  std::string error;
  for (std::size_t i = 0; i < workers; ++i) {
    ScopedSpan span(tracer, "engine.shard.worker");
    engine::ShardWorkerConfig config;
    config.specs = p.specs;
    config.edges = edges;
    config.ranges = {ranges[i]};
    config.worker_id = static_cast<std::uint32_t>(i);
    config.num_workers = static_cast<std::uint32_t>(workers);
    config.stream_fingerprint = FingerprintEdgeStream(edges);
    config.spec_fingerprint = engine::FingerprintSpecs(p.specs);
    config.block_edges = kBlockEdges;
    const engine::ShardWorkerOutcome outcome =
        engine::RunShardWorker(config, paths[i], &error);
    CHECK(outcome.completed) << "shard worker " << i << ": " << error;
  }
  // LoadShardState and SaveShardState, each split into its I/O half and its
  // codec half.
  std::vector<engine::ShardState> states(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    std::string encoded;
    {
      ScopedSpan span(tracer, "engine.state.read");
      CHECK(io::ReadFileToString(paths[i], &encoded, &error)) << error;
    }
    ScopedSpan span(tracer, "engine.state.decode");
    CHECK(engine::DecodeShardState(encoded, &states[i], &error)) << error;
  }
  for (std::size_t i = 0; i < workers; ++i) {
    std::string encoded;
    {
      ScopedSpan span(tracer, "engine.state.encode");
      encoded = engine::EncodeShardState(states[i]);
    }
    *state_bytes += encoded.size();
    ScopedSpan span(tracer, "engine.state.write");
    CHECK(io::WriteFileAtomic(paths[i], encoded, &error)) << error;
  }
  std::vector<engine::EdgeQuery> merged;
  {
    ScopedSpan span(tracer, "engine.state.merge");
    merged = engine::MergeShardStates(p.specs, states, {});
  }
  std::vector<double> estimates;
  for (engine::EdgeQuery& q : merged) estimates.push_back(q.result().value);
  for (const std::string& path : paths) std::filesystem::remove(path);
  return estimates;
}

void WriteEstimates(JsonWriter& json, const std::string& key,
                    const std::vector<engine::QueryOutcome>& outcomes) {
  json.Key(key);
  json.BeginObject();
  for (const engine::QueryOutcome& out : outcomes) {
    json.Key(out.spec.name);
    json.BeginObject();
    json.Key("admitted");
    json.Bool(out.admission == engine::AdmissionOutcome::kAdmitted &&
              !out.poisoned);
    json.Key("estimate");
    json.Double(out.estimate.value);
    json.Key("space_words");
    json.Uint(out.estimate.space_words);
    json.EndObject();
  }
  json.EndObject();
}

int RunTrace(const Workload& w, const std::string& out_path) {
  Tracer tracer;
  Prepared p;
  std::vector<engine::QueryOutcome> outcomes;
  std::vector<engine::QueryOutcome> broker_outcomes;
  std::vector<double> merged_estimates;
  std::uint64_t state_bytes = 0;
  {
    ScopedSpan path(tracer, "cli_path");
    RunSetup(w, tracer, &p);
    engine::EngineStats stats;
    {
      ScopedSpan span(tracer, "engine.coordinator");
      if (w.shards > 1) {
        engine::ShardBatchResult result =
            engine::RunShardedBatch(p.specs, FileOrderEdges(p), ShardPlan(w));
        outcomes = std::move(result.outcomes);
        stats = result.stats;
      }
    }
    {
      ScopedSpan span(tracer, "engine.broker");
      broker_outcomes = RunBroker(w, p);
    }
    if (w.shards <= 1) outcomes = broker_outcomes;
    {
      ScopedSpan span(tracer, "util.manifest");
      RunManifest manifest("perfbench.trace");
      engine::ExportToManifest(outcomes, stats, manifest);
      CHECK(manifest.WriteFile(out_path + ".manifest.json"));
    }
  }
  {
    ScopedSpan probes(tracer, "probes");
    std::set<std::string> seen;
    for (const engine::QuerySpec& spec : p.specs) {
      RunSerialQuery(w, p, spec, tracer);
      seen.insert(SerialSpanNames(spec).first);
    }
    // Layers this workload never reaches still get one empty span each.
    std::vector<std::pair<std::string, std::string>> layers;
    for (std::string_view kind : kProbedKinds) {
      engine::QuerySpec spec;
      spec.kind = *engine::ParseQueryKind(kind);
      layers.push_back(SerialSpanNames(spec));
    }
    layers.emplace_back("stream.window.update", "stream.window.result");
    for (const auto& [update_name, result_name] : layers) {
      if (seen.count(update_name) > 0) continue;
      { ScopedSpan update(tracer, update_name); }
      { ScopedSpan result(tracer, result_name); }
    }
    merged_estimates = ProbeShardLayers(w, p, tracer, &state_bytes);
  }
  std::filesystem::remove(out_path + ".manifest.json");

  std::ofstream out(out_path);
  {
    JsonWriter json(out, 0);
    json.BeginObject();
    json.Key("threads");
    json.Int(w.threads);
    json.Key("state_bytes");
    json.Uint(state_bytes);
    // With W > 1 the broker span above is not on the CLI path; it is the
    // in-process batch the sharded result must match bit for bit.
    json.Key("broker_on_path");
    json.Bool(w.shards <= 1);
    WriteEstimates(json, "outcomes", outcomes);
    WriteEstimates(json, "broker_outcomes", broker_outcomes);
    json.Key("merged_estimates");
    json.BeginArray();
    for (double v : merged_estimates) json.Double(v);
    json.EndArray();
    json.Key("spans");
    json.BeginArray();
    for (const Span& span : tracer.spans()) {
      json.BeginObject();
      json.Key("name");
      json.String(span.name);
      json.Key("start");
      json.Double(span.start);
      json.Key("end");
      json.Double(span.end);
      json.Key("parent");
      json.Int(span.parent);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  out << "\n";
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}

/// Build facts the benchmark records and gates on. An assert-enabled build
/// is refused here, as the bm_* mains refuse it.
int RunInfo() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  JsonWriter json(std::cout, 0);
  json.BeginObject();
  json.Key("ndebug");
  json.Bool(ndebug);
  json.Key("compiler");
  json.String(PERFBENCH_COMPILER);
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.Key("git");
  json.String(BuildGitDescribe());
  json.EndObject();
  std::cout << "\n";
  return ndebug ? 0 : 1;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.positional().size() != 1) {
    std::cerr << "usage: perfbench_trace info|setup|trace --graph G.bin "
                 "--spec S.txt [--threads N] [--order shuffled|file] "
                 "[--seed S] [--shards W --shard-dir DIR --cli BIN] "
                 "[--out FILE]\n";
    return 2;
  }
  const std::string mode = flags.positional()[0];
  if (mode == "info") return RunInfo();
#ifndef NDEBUG
  std::cerr << "error: perfbench_trace was built without NDEBUG; rebuild "
               "with -DCMAKE_BUILD_TYPE=Release\n";
  return 1;
#endif

  Workload w;
  w.threads = ApplyThreadsFlag(flags);
  w.graph_path = flags.GetString("graph", "");
  const std::string order = flags.GetString("order", "shuffled");
  w.shuffled = order == "shuffled";
  w.seed = flags.GetCount("seed", 1);
  w.shards = static_cast<int>(flags.GetCount("shards", 1));
  w.shard_dir = flags.GetString("shard-dir", "");
  w.cli = flags.GetString("cli", "");
  const std::string spec_path = flags.GetString("spec", "");
  const std::string out_path = flags.GetString("out", "");
  std::string error;
  if (w.graph_path.empty() || spec_path.empty() ||
      (order != "shuffled" && order != "file")) {
    std::cerr << "error: --graph and --spec are required; --order is "
                 "shuffled or file\n";
    return 2;
  }
  // The CLI's spec defaults (LoadSpecFile; sweep's generated specs match).
  engine::QuerySpec defaults;
  defaults.base.epsilon = 0.2;
  defaults.base.c = 2.0;
  defaults.base.t_guess = 0.0;
  defaults.base.seed = w.seed;
  if (!engine::ParseSpecFile(spec_path, defaults, &w.specs, &error) ||
      w.specs.empty()) {
    std::cerr << "error: " << (error.empty() ? "no specs" : error) << "\n";
    return 1;
  }
  w.family = FamilyOf(w.specs[0].kind);
  if (w.shards > 1 && (w.family != Family::kEdge || w.shuffled ||
                       w.shard_dir.empty() || w.cli.empty())) {
    std::cerr << "error: --shards > 1 needs edge specs, --order file, "
                 "--shard-dir and --cli\n";
    return 2;
  }

  if (mode == "setup") {
    Tracer tracer;
    Prepared p;
    RunSetup(w, tracer, &p);
    const Span& setup = tracer.spans().front();
    std::printf("%.9f\n", setup.end - setup.start);
    return 0;
  }
  if (mode == "trace" && !out_path.empty()) return RunTrace(w, out_path);
  std::cerr << "error: unknown mode '" << mode << "' (or missing --out)\n";
  return 2;
}

}  // namespace
}  // namespace cyclestream

int main(int argc, char** argv) { return cyclestream::Main(argc, argv); }
