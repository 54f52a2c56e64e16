#ifndef CYCLESTREAM_CORE_ADJ_F2_COUNTER_H_
#define CYCLESTREAM_CORE_ADJ_F2_COUNTER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "stream/driver.h"
#include "stream/space.h"

namespace cyclestream {

/// The §4.2 algorithm (Theorem 4.3a): one pass over an adjacency-list
/// stream, Õ(ε⁻⁴·n⁴/T²) space, (1+ε)-approximation of the 4-cycle count —
/// polylog space once T = Ω(n²/ε²).
///
/// Reduction: with x the wedge vector (x_{uv} = |Γ(u)∩Γ(v)|) and
/// z_{uv} = min(x_{uv}, 1/ε),
///     F₂(x) = F₁(z) + 4T ± 4εT          (Lemma 4.4)
/// so  T̂ = (F̂₂(x) − F̂₁(z)) / 4.
///
/// F₂(x) is estimated by the paper's specialized AMS estimator, computable
/// with four counters per basic copy in the adjacency model: while list t
/// streams, accumulate A_t = Σ α_u, B_t = Σ β_u, C_t = Σ α_u β_u over
/// u ∈ Γ(t) (α, β 4-wise independent signs); at the end of the list add
/// (A_t·B_t − C_t)/2 to the copy's running Z. Then E[Z²] = F₂(x), and
/// median-of-means over copies gives the (1+γ) guarantee with
/// γ = ε·min(1, εT/n²).
///
/// F₁(z) is estimated by sampling vertex pairs at rate p ∝ ε⁻⁴n²/T²·log n
/// and counting each sampled pair's common neighbors (capped at 1/ε) with
/// O(1) state per pair.
///
/// Memory layout: the estimator copies are structure-of-arrays, copy-minor —
/// sign caches as alpha[v·C + c], per-list accumulators as a[c]/b[c]/c[c] —
/// so the inner per-neighbor loop is three contiguous C-length sweeps.
/// Bit-identical to the historical array-of-structs layout (each slot sees
/// the same additions in the same order).
class AdjF2FourCycleCounter : public AdjacencyStreamAlgorithm {
 public:
  struct Params {
    ApproxConfig base;
    VertexId num_vertices = 0;
    /// Basic estimators per median group; <= 0 derives ⌈2/γ²⌉ (capped at
    /// 4096) from the config.
    int copies_per_group = -1;
    /// Median groups.
    int groups = 9;
    /// Pair-sampling rate override for the F₁(z) part; <= 0 derives the
    /// paper's rate (clamped to 1).
    double pair_rate = -1.0;
  };

  explicit AdjF2FourCycleCounter(const Params& params);

  // AdjacencyStreamAlgorithm:
  int NumPasses() const override { return 1; }
  void StartPass(int pass, std::size_t num_lists) override;
  void ProcessList(int pass, const AdjacencyList& list,
                   std::size_t position) override;
  void EndPass(int pass) override;
  std::size_t AuditSpace() const override;
  const SpaceTracker* space_tracker() const override { return &space_; }
  std::string_view CheckpointId() const override { return "adjf2/1"; }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;

  Estimate Result() const { return result_; }

  /// Component estimates (diagnostics).
  double F2Estimate() const { return f2_estimate_; }
  double F1Estimate() const { return f1_estimate_; }

 private:
  struct SampledPair {
    VertexId u = 0;
    VertexId v = 0;
    std::uint32_t z = 0;             // min(common neighbors so far, cap).
    std::uint64_t stamp_u = ~0ull;   // List position where u was last seen.
    std::uint64_t stamp_v = ~0ull;
    std::uint64_t counted = ~0ull;   // Guard against double-count per list.
  };

  void UpdateSpace();

  Params params_;
  std::uint32_t z_cap_ = 1;
  double pair_rate_ = 1.0;

  std::size_t num_copies_ = 0;
  // 4-wise ±1 sign caches, copy-minor (alpha_[v·C + c]), filled at
  // construction by KWiseHashBank::SignTable: forward differences over the
  // vertex universe, three modular adds per entry (see
  // ArbF2FourCycleCounter for the space-accounting rationale).
  std::vector<signed char> alpha_;
  std::vector<signed char> beta_;
  std::vector<double> acc_a_;  // Current-list A per copy.
  std::vector<double> acc_b_;
  std::vector<double> acc_c_;
  std::vector<double> z_;      // Running Σ_t (A_t·B_t − C_t)/2 per copy.
  mutable std::vector<double> square_scratch_;
  std::vector<SampledPair> pairs_;
  std::unordered_map<VertexId, std::vector<std::uint32_t>> pairs_by_vertex_;

  double f2_estimate_ = 0.0;
  double f1_estimate_ = 0.0;
  SpaceTracker space_;
  Estimate result_;
};

/// Convenience wrapper.
Estimate CountFourCyclesAdjF2(const AdjacencyStream& stream,
                              const AdjF2FourCycleCounter::Params& params);

}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_ADJ_F2_COUNTER_H_
