#ifndef CYCLESTREAM_CORE_ARB_F2_COUNTER_H_
#define CYCLESTREAM_CORE_ARB_F2_COUNTER_H_

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/config.h"
#include "stream/driver.h"

namespace cyclestream {

/// The §5.3 algorithm (Theorem 5.7): one pass over an *arbitrary order* edge
/// stream, Õ(ε⁻²·n) space, (1+ε)-approximation of the 4-cycle count when
/// T = Ω(n²/ε²). Also correct in the dynamic (insert/delete) setting.
///
/// Same F₂-of-the-wedge-vector reduction as §4.2, but because lists are not
/// grouped, each basic estimator maintains the three per-vertex accumulators
/// A_t, B_t, C_t for *every* vertex (3n counters): when edge (u,v) arrives,
/// A_u += α_v, B_u += β_v, C_u += α_v·β_v and symmetrically for v (deletions
/// subtract). At the end, Z = Σ_t (A_t·B_t − C_t)/2 and E[Z²] = F₂(x).
///
/// In the theorem's regime the capped-F₁ term of Lemma 4.4 satisfies
/// F₁(z) ≤ n²/ε ≤ O(ε)·T, so the estimate T̂ = F̂₂/4 is already (1+O(ε));
/// the implementation therefore omits the F₁ correction (callers may
/// subtract a known F₁ via `f1_correction` for out-of-regime studies).
///
/// Memory layout: the estimator copies are stored structure-of-arrays,
/// copy-minor — sign caches as alpha[v·C + c] and accumulators as
/// accA[v·C + c] for C total copies — so the six updates an edge triggers
/// are six contiguous C-length sweeps instead of C strided struct walks.
///
/// Slots: A_t, B_t and C_t are sums of ±1 steps, so the production
/// counter (`ArbF2FourCycleCounter`, Slot = int32) holds them as integers.
/// It counts the steps it has taken, merges included, in `updates_` and
/// CHECK-fails past kMaxSlotSteps (sketch/signed_slots.h), which bounds
/// every |slot| by construction; the finalize sums A_t·B_t − C_t in 64-bit
/// integers. Slot = double (`DecayArbF2FourCycleCounter`) exists for the
/// exponential-decay path alone, whose 2^-k Rescale leaves the integers;
/// it keeps the double layout and the "arbf2/1" checkpoint id.
struct ArbF2Params {
  ApproxConfig base;
  VertexId num_vertices = 0;
  int copies_per_group = -1;  // <= 0 derives ⌈2/ε²⌉ capped at 512.
  int groups = 9;
  double f1_correction = 0.0;  // Optional known F₁(z) to subtract.
};

template <typename Slot>
class BasicArbF2FourCycleCounter : public EdgeStreamAlgorithm {
 public:
  using Params = ArbF2Params;
  static constexpr bool kIntegerSlots = std::is_integral_v<Slot>;

  explicit BasicArbF2FourCycleCounter(const Params& params);

  /// Dynamic interface.
  void Insert(const Edge& e);
  void Delete(const Edge& e);

  // EdgeStreamAlgorithm (insert-only adapter):
  int NumPasses() const override { return 1; }
  void StartPass(int pass, std::size_t stream_length) override;
  void ProcessEdge(int pass, const Edge& e, std::size_t position) override;
  /// Multiplies every accumulator by `factor` — the exponential-decay
  /// hook. With an exact power-of-two factor the multiply is a pure
  /// exponent shift, lossless on every slot.
  void Rescale(double factor)
    requires(!kIntegerSlots);
  void EndPass(int pass) override;
  std::string_view CheckpointId() const override {
    return kIntegerSlots ? "arbf2/2" : "arbf2/1";
  }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;
  /// Adds `other`'s accumulators into this counter's (the turnstile-c4
  /// window folds its buckets this way). The state is linear in the stream
  /// (every edge contributes fixed ±1 / ±1·±1 deltas), so merging
  /// shard-local counters over a partitioned stream reproduces the
  /// whole-stream counters exactly: integer addition is exact and
  /// associative. False (no mutation) unless `other` has identical
  /// result-affecting configuration; CHECK-fails if the summed step count
  /// passes kMaxSlotSteps.
  bool MergeFrom(const BasicArbF2FourCycleCounter& other);
  /// MergeFrom from a SaveState blob: checks the config fields, the step
  /// count, the three accumulator sizes, that every |slot| is within the
  /// blob's step count and that `r` holds nothing after them, then adds
  /// the blob's accumulators in place, read straight from its bytes.
  /// RestoreState is the same validation and a copy.
  bool MergeState(StateReader& r) override;

  /// Computes the estimate from the current counters (may be called at any
  /// time in the dynamic setting).
  Estimate Result() const;

  double F2Estimate() const;

 private:
  template <int kSign>
  void Apply(const Edge& e);
  /// Fills alpha_ and beta_ from the seed chain of params_.base.seed.
  void BuildSignTables();
  /// Reads SaveState's layout from `r` without mutating this counter: the
  /// config fields must match and each accumulator array must hold exactly
  /// n·C slots. On success `arrays` views the A, B, C bytes inside `r` and
  /// `*updates` holds the blob's step count (0 for double slots, which do
  /// not save one).
  bool ParseState(StateReader& r, std::string_view arrays[3],
                  std::uint64_t* updates) const;

  Params params_;
  std::size_t num_copies_ = 0;
  // ±1 sign caches, copy-minor: alpha_[v·C + c] for vertex v, copy c.
  // Built by BuildSignTables on the first Insert/Delete, so a counter that
  // only merges and finalizes (a shard merge target, a window's fold)
  // never holds them. KWiseHashBank::SignTable fills each table for the
  // known vertex universe by forward differences: three modular adds per
  // entry, about 1.3 ns against 9–10 ns for per-vertex Horner on a
  // 4-vCPU Xeon.
  std::vector<signed char> alpha_;
  std::vector<signed char> beta_;
  // Accumulators, copy-minor: acc{A,B,C}_[v·C + c].
  std::vector<Slot> acc_a_;
  std::vector<Slot> acc_b_;
  std::vector<Slot> acc_c_;
  // ±1 steps taken, merges included (integer slots only). It bounds
  // every |slot|, since an edge steps each slot of its two rows by one.
  std::uint64_t updates_ = 0;
};

extern template class BasicArbF2FourCycleCounter<std::int32_t>;
extern template class BasicArbF2FourCycleCounter<double>;

using ArbF2FourCycleCounter = BasicArbF2FourCycleCounter<std::int32_t>;
using DecayArbF2FourCycleCounter = BasicArbF2FourCycleCounter<double>;

/// Convenience wrapper over an insert-only stream.
Estimate CountFourCyclesArbF2(const EdgeStream& stream,
                              const ArbF2Params& params);

}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_ARB_F2_COUNTER_H_
