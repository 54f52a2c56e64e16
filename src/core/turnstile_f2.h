#ifndef CYCLESTREAM_CORE_TURNSTILE_F2_H_
#define CYCLESTREAM_CORE_TURNSTILE_F2_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/arb_f2_counter.h"
#include "core/config.h"
#include "stream/dynamic/turnstile.h"

namespace cyclestream {

/// Dynamic-model estimators (query kinds `turnstile-f2-c4` and
/// `turnstile-f2-triangle`). Both are linear sketches of the signed edge
/// indicator vector x (x_e = inserts − deletes of e), which is the whole
/// point of the turnstile subsystem: a deletion is the insertion applied
/// with sign −1, so cancellation, shard merges, checkpoints, window-bucket
/// folds, and decay rescaling all compose exactly. See DESIGN.md §16.

/// Four-cycle counting in the turnstile model: the paper's Thm 5.7
/// estimator verbatim — ArbF2FourCycleCounter is already "correct in the
/// dynamic setting" (its header), this wrapper is the op-aware stream
/// adapter. On an insert-only turnstile stream the inner state, and hence
/// the estimate, is bit-identical to the arb-f2 query kind with the same
/// Params (same seed chain, same accumulator layout, same update order).
///
/// Integer slots (int32) unless the query decays: see the slot note on
/// BasicArbF2FourCycleCounter. Rescale succeeds only on double slots.
template <typename Slot>
class BasicTurnstileF2FourCycleCounter : public TurnstileStreamAlgorithm {
 public:
  using Params = ArbF2Params;

  explicit BasicTurnstileF2FourCycleCounter(const Params& params)
      : inner_(params) {}

  void StartPass(int pass, std::size_t stream_length) override;
  void ProcessUpdate(int pass, const TurnstileUpdate& u,
                     std::size_t position) override;
  void EndPass(int pass) override;
  Estimate Result() const override { return inner_.Result(); }
  bool Rescale(double factor) override;
  std::string_view CheckpointId() const override {
    return std::is_integral_v<Slot> ? "turnstile-c4/2" : "turnstile-c4/1";
  }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;
  bool MergeFrom(const TurnstileStreamAlgorithm& other) override;

  const BasicArbF2FourCycleCounter<Slot>& inner() const { return inner_; }

 private:
  BasicArbF2FourCycleCounter<Slot> inner_;
};

extern template class BasicTurnstileF2FourCycleCounter<std::int32_t>;
extern template class BasicTurnstileF2FourCycleCounter<double>;

using TurnstileF2FourCycleCounter =
    BasicTurnstileF2FourCycleCounter<std::int32_t>;
using DecayTurnstileF2FourCycleCounter =
    BasicTurnstileF2FourCycleCounter<double>;

/// Triangle counting in the turnstile model via the cubic sign sketch:
/// each copy keeps the single counter Z_c = Σ_e x_e·σ_c(u)·σ_c(v) with
/// 6-wise independent ±1 vertex signs σ_c. For an ordered triple of
/// distinct stream edges the sign product survives expectation only when
/// the three edges close a triangle (each vertex appears exactly twice,
/// σ² = 1), and each triangle is hit by 3! orderings, so E[Z³] = 6T —
/// 6-wise independence is exactly enough for the third moment. The
/// estimate is MedianOfMeans over the per-copy basics Z_c³/6. Space is
/// O(1) counters per copy (plus the per-vertex sign cache), the state is
/// linear in x, and deletions are sign −1 updates — the triangle-side
/// counterpart the insert-only algorithms (A–D) cannot offer.
///
/// Z_c is an int64 slot bounded by the step count `updates_` (kMaxSlotSteps,
/// sketch/signed_slots.h), except on the decay path, which keeps doubles.
struct TurnstileF2TriangleParams {
  ApproxConfig base;
  VertexId num_vertices = 0;
  int copies_per_group = -1;  // <= 0 derives ⌈2/ε²⌉ capped at 512.
  int groups = 9;
};

template <typename Slot>
class BasicTurnstileF2TriangleCounter : public TurnstileStreamAlgorithm {
 public:
  using Params = TurnstileF2TriangleParams;
  static constexpr bool kIntegerSlots = std::is_integral_v<Slot>;

  explicit BasicTurnstileF2TriangleCounter(const Params& params);

  void StartPass(int pass, std::size_t stream_length) override;
  void ProcessUpdate(int pass, const TurnstileUpdate& u,
                     std::size_t position) override;
  void EndPass(int pass) override;
  Estimate Result() const override;
  bool Rescale(double factor) override;
  std::string_view CheckpointId() const override {
    return kIntegerSlots ? "turnstile-tri/2" : "turnstile-tri/1";
  }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;
  bool MergeFrom(const TurnstileStreamAlgorithm& other) override;

 private:
  template <int kSign>
  void Apply(const Edge& e);

  Params params_;
  std::size_t num_copies_ = 0;
  // ±1 sign cache, copy-minor: sigma_[v·C + c] for vertex v, copy c.
  std::vector<signed char> sigma_;
  // Per-copy counters Z_c; each |Z_c| ≤ updates_ (integer slots only).
  std::vector<Slot> z_;
  std::uint64_t updates_ = 0;
  mutable std::vector<double> cube_scratch_;
};

extern template class BasicTurnstileF2TriangleCounter<std::int64_t>;
extern template class BasicTurnstileF2TriangleCounter<double>;

using TurnstileF2TriangleCounter = BasicTurnstileF2TriangleCounter<std::int64_t>;
using DecayTurnstileF2TriangleCounter = BasicTurnstileF2TriangleCounter<double>;

}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_TURNSTILE_F2_H_
