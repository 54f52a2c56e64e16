#ifndef CYCLESTREAM_HASH_KWISE_BANK_H_
#define CYCLESTREAM_HASH_KWISE_BANK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "hash/kwise.h"

namespace cyclestream {

class StateWriter;
class StateReader;

namespace internal {
struct SketchBankView;
}  // namespace internal

/// A bank of N independent k-wise hashes evaluated together.
///
/// Every sketch in this library runs many independent copies of the same
/// estimator, and each stream element pays one polynomial-hash evaluation
/// *per copy*. Evaluating the copies one at a time through a
/// std::vector<KWiseHash> costs an input reduction (x mod p) per copy and a
/// pointer chase into each hash's own coefficient vector. The bank stores
/// the coefficients of all N hashes coefficient-major in one flat array
/// (coeffs_[j·N + i] = c_j of hash i), reduces the input once, and runs the
/// shared Horner recurrence as k−1 contiguous sweeps over N-length rows —
/// a layout the compiler can keep in cache and vectorize.
///
/// Bit-identical contract: hash i of a bank built from seeds[i] computes
/// exactly the same values as KWiseHash(k, seeds[i]) — the same rejection-
/// sampled coefficients, the same field operations (hash/mersenne.h), the
/// same canonical input reduction. EvalAll(x)[i] == KWiseHash(k, seeds[i])(x)
/// for every x, enforced by kwise_bank_test.
class KWiseHashBank {
 public:
  static constexpr std::uint64_t kPrime = KWiseHash::kPrime;

  KWiseHashBank() = default;

  /// Builds N = seeds.size() hashes; hash i draws its coefficients from
  /// seeds[i] exactly as KWiseHash(k, seeds[i]) would. Requires k >= 1.
  KWiseHashBank(int k, std::span<const std::uint64_t> seeds);

  std::size_t size() const { return n_; }
  int k() const { return k_; }

  /// out[i] = h_i(x) ∈ [0, p) for all i. `out` must hold size() entries.
  void EvalAll(std::uint64_t x, std::uint64_t* out) const;

  /// out[x·size() + i] = sign_i(x) for the keys x = 0..num_keys−1: ±1 from
  /// the low bit of h_i(x) (odd → +1), matching KWiseHash::Sign. `out` must
  /// hold num_keys · size() entries.
  ///
  /// Runs by forward differences: h_i has degree k−1 over GF(p), so its
  /// (k−1)-th difference is constant. Each copy's difference table is
  /// seeded from h_i(0..k−1) by Eval, and every step x → x+1 is k−1
  /// modular adds per copy, with no multiply. The residues stay canonical,
  /// so each sign is the bit Horner's evaluation gives.
  void SignTable(std::size_t num_keys, signed char* out) const;

  /// out[i] = h_i(x) / p ∈ [0, 1), matching KWiseHash::ToUnit.
  void ToUnitAll(std::uint64_t x, double* out) const;

  /// counters[i] += delta · sign_i(x) for all i — the fused AMS update.
  /// The Horner tiles feed the counters directly; no scratch needed.
  void AccumulateSigned(std::uint64_t x, double delta, double* counters) const;

  /// Block form of AccumulateSigned over keys[0..count): counters[i]
  /// += delta · sign_i(keys[b]) for every b, applied in key order so each
  /// counter sees the identical IEEE addition sequence the per-key loop
  /// would issue. Routed through the active SIMD tier (SetSketchSimdMode);
  /// every tier is bit-identical to the scalar path.
  void AccumulateSignedBlock(std::span<const std::uint64_t> keys, double delta,
                             double* counters) const;

  /// Block form of EvalAll: out[b·size() + i] = h_i(keys[b]) ∈ [0, p).
  /// `out` must hold keys.size() · size() entries.
  void EvalBlock(std::span<const std::uint64_t> keys, std::uint64_t* out) const;

  /// Scalar evaluation of a single member (for cold paths like query-time
  /// re-derivation of one copy's randomness). Identical value to EvalAll[i].
  std::uint64_t Eval(std::size_t i, std::uint64_t x) const;

  double ToUnit(std::size_t i, std::uint64_t x) const {
    return static_cast<double>(Eval(i, x)) / static_cast<double>(kPrime);
  }

  /// Number of 64-bit words of state (for space accounting): k per hash.
  std::size_t SpaceWords() const { return coeffs_.size(); }

  /// Checkpoint serialization. The bank is immutable after construction, so
  /// RestoreState into a bank rebuilt from the same seeds acts as a config
  /// verification: it fails (without mutating) if (k, n, coefficients)
  /// differ from the snapshot. Restoring into a default-constructed bank
  /// adopts the serialized coefficients.
  void SaveState(StateWriter& w) const;
  bool RestoreState(StateReader& r);

 private:
  /// Builds the view handed to the block kernels, materializing the derived
  /// power-basis split tables on first use. The tables are a cache over
  /// coeffs_ (split_lo_[j·n+i] = c & (2³¹−1), split_hi_ = c >> 31): they are
  /// not counted by SpaceWords and not serialized — a restored bank rebuilds
  /// them lazily. Lazy build mutates the mutable members, so like the sketch
  /// scratch buffers the first block call is not thread-safe; threads may
  /// share a bank only after it is warm.
  internal::SketchBankView BlockView() const;
  void EnsureBlockTables() const;

  int k_ = 0;
  std::size_t n_ = 0;
  std::vector<std::uint64_t> coeffs_;  // coeffs_[j * n_ + i] = c_j of hash i.
  mutable std::vector<std::uint64_t> split_lo_;  // Derived, lazy; see above.
  mutable std::vector<std::uint64_t> split_hi_;
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_HASH_KWISE_BANK_H_
