#include "engine/query.h"

#include <utility>

#include "baselines/bera_chakrabarti.h"
#include "baselines/cormode_jowhari.h"
#include "baselines/triest.h"
#include "core/adj_f2_counter.h"
#include "core/adj_l2_counter.h"
#include "core/arb_f2_counter.h"
#include "core/arb_three_pass.h"
#include "core/diamond_counter.h"
#include "core/random_order_triangles.h"
#include "core/turnstile_f2.h"
#include "stream/window/window.h"
#include "util/check.h"

namespace cyclestream::engine {
namespace {

// Wraps a concrete algorithm (which owns its own Result() signature) into
// the type-erased query pair. The closure captures a raw pointer into the
// unique_ptr it rides alongside, so it stays valid for the query's lifetime.
template <typename Alg>
EdgeQuery WrapEdge(std::unique_ptr<Alg> alg) {
  Alg* raw = alg.get();
  return EdgeQuery{std::move(alg), [raw] { return raw->Result(); }};
}

template <typename Alg>
AdjacencyQuery WrapAdjacency(std::unique_ptr<Alg> alg) {
  Alg* raw = alg.get();
  return AdjacencyQuery{std::move(alg), [raw] { return raw->Result(); }};
}

// A factory for the integer-slot estimator, or for its double-slot twin
// when the query decays.
template <typename Exact, typename Decay, typename Params>
TurnstileAlgorithmFactory MakeFactory(const Params& p, bool decayed) {
  if (decayed) return [p] { return std::make_unique<Decay>(p); };
  return [p] { return std::make_unique<Exact>(p); };
}

}  // namespace

std::string_view QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRandomOrderTriangles:
      return "random-order";
    case QueryKind::kTriest:
      return "triest";
    case QueryKind::kCormodeJowhari:
      return "cormode-jowhari";
    case QueryKind::kArbF2:
      return "arb-f2";
    case QueryKind::kArbThreePass:
      return "arb-three-pass";
    case QueryKind::kBeraChakrabarti:
      return "bera-chakrabarti";
    case QueryKind::kAdjDiamond:
      return "adj-diamond";
    case QueryKind::kAdjF2:
      return "adj-f2";
    case QueryKind::kAdjL2:
      return "adj-l2";
    case QueryKind::kTurnstileF2Triangle:
      return "turnstile-f2-triangle";
    case QueryKind::kTurnstileF2C4:
      return "turnstile-f2-c4";
  }
  CHECK(false) << "unreachable QueryKind " << static_cast<int>(kind);
  return "";
}

std::optional<QueryKind> ParseQueryKind(std::string_view name) {
  for (QueryKind kind :
       {QueryKind::kRandomOrderTriangles, QueryKind::kTriest,
        QueryKind::kCormodeJowhari, QueryKind::kArbF2,
        QueryKind::kArbThreePass, QueryKind::kBeraChakrabarti,
        QueryKind::kAdjDiamond, QueryKind::kAdjF2, QueryKind::kAdjL2,
        QueryKind::kTurnstileF2Triangle, QueryKind::kTurnstileF2C4}) {
    if (name == QueryKindName(kind)) return kind;
  }
  return std::nullopt;
}

bool IsEdgeKind(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRandomOrderTriangles:
    case QueryKind::kTriest:
    case QueryKind::kCormodeJowhari:
    case QueryKind::kArbF2:
    case QueryKind::kArbThreePass:
    case QueryKind::kBeraChakrabarti:
      return true;
    case QueryKind::kAdjDiamond:
    case QueryKind::kAdjF2:
    case QueryKind::kAdjL2:
    case QueryKind::kTurnstileF2Triangle:
    case QueryKind::kTurnstileF2C4:
      return false;
  }
  CHECK(false) << "unreachable QueryKind " << static_cast<int>(kind);
  return false;
}

bool IsTurnstileKind(QueryKind kind) {
  return kind == QueryKind::kTurnstileF2Triangle ||
         kind == QueryKind::kTurnstileF2C4;
}

bool IsShardMergeableKind(QueryKind kind) {
  return kind == QueryKind::kArbF2;
}

std::string_view QueryKindTarget(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRandomOrderTriangles:
    case QueryKind::kTriest:
    case QueryKind::kCormodeJowhari:
    case QueryKind::kTurnstileF2Triangle:
      return "triangles";
    default:
      return "c4";
  }
}

bool NeedsTGuess(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRandomOrderTriangles:
    case QueryKind::kCormodeJowhari:
    case QueryKind::kArbThreePass:
    case QueryKind::kBeraChakrabarti:
    case QueryKind::kAdjDiamond:
    case QueryKind::kAdjF2:
    case QueryKind::kAdjL2:
      return true;
    case QueryKind::kTriest:
    case QueryKind::kArbF2:
    case QueryKind::kTurnstileF2Triangle:
    case QueryKind::kTurnstileF2C4:
      return false;
  }
  return true;
}

bool ValidateSpecWindowing(const QuerySpec& spec, std::string* error) {
  auto fail = [&](std::string message) {
    if (error != nullptr) {
      *error = "query '" + spec.name + "': " + std::move(message);
    }
    return false;
  };
  const bool windowed = spec.window_edges > 0;
  const bool decayed = spec.decay_epoch_edges > 0;
  if (!windowed && !decayed) {
    if (spec.decay_log2 != 0) {
      return fail("decay_log2 has no effect without decay_epoch > 0");
    }
    return true;
  }
  if (!IsTurnstileKind(spec.kind)) {
    return fail("window/decay require a turnstile kind, not " +
                std::string(QueryKindName(spec.kind)));
  }
  if (windowed && decayed) {
    return fail("window and decay are mutually exclusive");
  }
  if (windowed) {
    if (spec.window_buckets == 0) {
      return fail("window_buckets must be >= 1");
    }
    if (spec.window_edges % spec.window_buckets != 0) {
      return fail("window (" + std::to_string(spec.window_edges) +
                  ") must be a multiple of window_buckets (" +
                  std::to_string(spec.window_buckets) + ")");
    }
    if (spec.decay_log2 != 0) {
      return fail("decay_log2 has no effect without decay_epoch > 0");
    }
  } else {
    if (spec.decay_log2 < 1 || spec.decay_log2 > 32) {
      return fail("decay_log2 must be in [1, 32] (exact power-of-two decay "
                  "factors), got " + std::to_string(spec.decay_log2));
    }
  }
  return true;
}

EdgeQuery MakeEdgeQuery(const QuerySpec& spec) {
  CHECK(IsEdgeKind(spec.kind))
      << "MakeEdgeQuery: '" << spec.name << "' has adjacency kind "
      << QueryKindName(spec.kind);
  switch (spec.kind) {
    case QueryKind::kRandomOrderTriangles: {
      RandomOrderTriangleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      p.level_rate = spec.level_rate;
      p.prefix_rate = spec.prefix_rate;
      return WrapEdge(std::make_unique<RandomOrderTriangleCounter>(p));
    }
    case QueryKind::kTriest: {
      Triest::Params p;
      p.reservoir_capacity = spec.reservoir_capacity;
      p.seed = spec.base.seed;
      return WrapEdge(std::make_unique<Triest>(p));
    }
    case QueryKind::kCormodeJowhari: {
      CormodeJowhariCounter::Params p;
      p.base = spec.base;
      p.prefix_rate = spec.prefix_rate;
      return WrapEdge(std::make_unique<CormodeJowhariCounter>(p));
    }
    case QueryKind::kArbF2: {
      ArbF2FourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      return WrapEdge(std::make_unique<ArbF2FourCycleCounter>(p));
    }
    case QueryKind::kArbThreePass: {
      ArbThreePassFourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      return WrapEdge(std::make_unique<ArbThreePassFourCycleCounter>(p));
    }
    case QueryKind::kBeraChakrabarti: {
      BeraChakrabartiCounter::Params p;
      p.base = spec.base;
      return WrapEdge(std::make_unique<BeraChakrabartiCounter>(p));
    }
    default:
      break;
  }
  CHECK(false) << "unreachable edge QueryKind";
  return {};
}

AdjacencyQuery MakeAdjacencyQuery(const QuerySpec& spec) {
  CHECK(!IsEdgeKind(spec.kind))
      << "MakeAdjacencyQuery: '" << spec.name << "' has edge kind "
      << QueryKindName(spec.kind);
  switch (spec.kind) {
    case QueryKind::kAdjDiamond: {
      DiamondFourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      return WrapAdjacency(std::make_unique<DiamondFourCycleCounter>(p));
    }
    case QueryKind::kAdjF2: {
      AdjF2FourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      return WrapAdjacency(std::make_unique<AdjF2FourCycleCounter>(p));
    }
    case QueryKind::kAdjL2: {
      AdjL2FourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      return WrapAdjacency(std::make_unique<AdjL2FourCycleCounter>(p));
    }
    default:
      break;
  }
  CHECK(false) << "unreachable adjacency QueryKind";
  return {};
}

TurnstileQuery MakeTurnstileQuery(const QuerySpec& spec) {
  CHECK(IsTurnstileKind(spec.kind))
      << "MakeTurnstileQuery: '" << spec.name << "' has non-turnstile kind "
      << QueryKindName(spec.kind);
  std::string windowing_error;
  CHECK(ValidateSpecWindowing(spec, &windowing_error)) << windowing_error;

  // The factory builds a fresh base estimator with the spec's exact
  // result-affecting configuration — called once for an unwindowed query,
  // once per bucket (plus once per Result()) for a windowed one. Integer
  // slots everywhere except under decay, whose 2^-k rescale needs doubles.
  const bool decayed = spec.decay_epoch_edges > 0;
  TurnstileAlgorithmFactory factory;
  switch (spec.kind) {
    case QueryKind::kTurnstileF2Triangle: {
      TurnstileF2TriangleParams p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      factory = MakeFactory<TurnstileF2TriangleCounter,
                            DecayTurnstileF2TriangleCounter>(p, decayed);
      break;
    }
    case QueryKind::kTurnstileF2C4: {
      ArbF2Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      factory = MakeFactory<TurnstileF2FourCycleCounter,
                            DecayTurnstileF2FourCycleCounter>(p, decayed);
      break;
    }
    default:
      CHECK(false) << "unreachable turnstile QueryKind";
  }

  std::unique_ptr<TurnstileStreamAlgorithm> alg;
  if (spec.window_edges > 0) {
    std::unique_ptr<TurnstileStreamAlgorithm> probe = factory();
    alg = std::make_unique<SlidingWindowAlgorithm>(
        factory, probe->CheckpointId(), spec.window_edges,
        spec.window_buckets);
  } else if (decayed) {
    alg = std::make_unique<DecayAlgorithm>(factory(), spec.decay_epoch_edges,
                                           spec.decay_log2);
  } else {
    alg = factory();
  }
  TurnstileStreamAlgorithm* raw = alg.get();
  return TurnstileQuery{std::move(alg), [raw] { return raw->Result(); }};
}

}  // namespace cyclestream::engine
