#include "hash/kwise_bank.h"

#include <algorithm>
#include <cstring>

#include "hash/kwise_kernels.h"
#include "hash/mersenne.h"
#include "hash/rng.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream {

KWiseHashBank::KWiseHashBank(int k, std::span<const std::uint64_t> seeds)
    : k_(k), n_(seeds.size()) {
  CHECK_GE(k, 1);
  coeffs_.resize(static_cast<std::size_t>(k) * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    // Identical coefficient derivation to KWiseHash(k, seeds[i]): a
    // splitmix64 chain per hash, rejection-sampled into [0, p).
    std::uint64_t s = seeds[i];
    for (int j = 0; j < k; ++j) {
      std::uint64_t c;
      do {
        c = SplitMix64(s) & ((1ULL << 62) - 1);
      } while (c >= kPrime);
      coeffs_[static_cast<std::size_t>(j) * n_ + i] = c;
    }
  }
}

// All batched sweeps below run the Horner recurrence with *lazy* modular
// stages (HornerStepLazy61: two unconditional folds, no compare/subtract)
// and canonicalize only when a value is consumed. The canonical result is
// identical to the strict AddMod61(MulMod61(...)) chain — both compute the
// same residue mod p and CanonicalizeMod61 picks the unique representative
// in [0, p) — so the bit-identical contract is unaffected.
//
// The accumulator is seeded at c_{k-1}: the scalar reference starts from
// acc = 0 and its first step reduces to acc = c_{k-1}, so the recurrences
// coincide step for step.

void KWiseHashBank::EvalAll(std::uint64_t x, std::uint64_t* out) const {
  const std::uint64_t xm = ReduceMod61(x);
  const std::size_t n = n_;
  const std::uint64_t* top = coeffs_.data() + static_cast<std::size_t>(k_ - 1) * n;
  for (std::size_t i = 0; i < n; ++i) out[i] = top[i];
  for (int j = k_ - 2; j >= 0; --j) {
    const std::uint64_t* row = coeffs_.data() + static_cast<std::size_t>(j) * n;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = HornerStepLazy61(out[i], xm, row[i]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = CanonicalizeMod61(out[i]);
}

void KWiseHashBank::SignTable(std::size_t num_keys, signed char* out) const {
  if (num_keys == 0 || n_ == 0) return;
  // The keys are their own residues only below p.
  CHECK_LE(num_keys, kPrime);
  const std::size_t n = n_;
  const std::size_t k = static_cast<std::size_t>(k_);
  // diff[j·n + i] = Δ^j h_i(x) for the current key x, copy-minor like
  // coeffs_ so each step is k−1 contiguous n-length sweeps. Seeded at x = 0
  // from h_i(0..k−1), turned into differences in place.
  std::vector<std::uint64_t> diff(k * n);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) diff[j * n + i] = Eval(i, j);
  }
  for (std::size_t m = 1; m < k; ++m) {
    for (std::size_t j = k - 1; j >= m; --j) {
      for (std::size_t i = 0; i < n; ++i) {
        diff[j * n + i] =
            SubMod61(diff[j * n + i], diff[(j - 1) * n + i]);
      }
    }
  }
  for (std::size_t x = 0;; ++x) {
    // Parity of the canonical residue: p is odd, so only the canonical
    // representative carries Horner's bit. Every entry stays in [0, p).
    const std::uint64_t* h = diff.data();
    signed char* row = out + x * n;
    for (std::size_t i = 0; i < n; ++i) {
      row[i] = static_cast<signed char>(2 * static_cast<int>(h[i] & 1) - 1);
    }
    if (x + 1 == num_keys) break;
    // Δ^j h(x+1) = Δ^j h(x) + Δ^{j+1} h(x): ascending j reads each
    // Δ^{j+1} before it steps.
    for (std::size_t j = 0; j + 1 < k; ++j) {
      std::uint64_t* lo = diff.data() + j * n;
      const std::uint64_t* hi = lo + n;
      for (std::size_t i = 0; i < n; ++i) {
        // AddMod61 without the branch, so the sweep vectorizes: a + b − p
        // lies in (−p, p), and its sign bit says whether to add p back.
        const std::uint64_t t = lo[i] + hi[i] - kPrime;
        lo[i] = t + (kPrime & (0 - (t >> 63)));
      }
    }
  }
}

void KWiseHashBank::ToUnitAll(std::uint64_t x, double* out) const {
  const std::uint64_t xm = ReduceMod61(x);
  const std::size_t n = n_;
  constexpr std::size_t kTile = 64;
  std::uint64_t acc[kTile];
  for (std::size_t base = 0; base < n; base += kTile) {
    const std::size_t len = std::min(kTile, n - base);
    const std::uint64_t* top =
        coeffs_.data() + static_cast<std::size_t>(k_ - 1) * n + base;
    for (std::size_t i = 0; i < len; ++i) acc[i] = top[i];
    for (int j = k_ - 2; j >= 0; --j) {
      const std::uint64_t* row =
          coeffs_.data() + static_cast<std::size_t>(j) * n + base;
      for (std::size_t i = 0; i < len; ++i) {
        acc[i] = HornerStepLazy61(acc[i], xm, row[i]);
      }
    }
    for (std::size_t i = 0; i < len; ++i) {
      out[base + i] = static_cast<double>(CanonicalizeMod61(acc[i])) /
                      static_cast<double>(kPrime);
    }
  }
}

void KWiseHashBank::AccumulateSigned(std::uint64_t x, double delta,
                                     double* counters) const {
  const std::uint64_t xm = ReduceMod61(x);
  const std::size_t n = n_;
  // ±delta by sign-bit flip: IEEE negation is exact, so this matches the
  // branchy (h & 1) ? +delta : -delta element for element — without a
  // data-dependent branch on an effectively random hash bit.
  std::uint64_t delta_bits;
  std::memcpy(&delta_bits, &delta, sizeof(delta));
  if (k_ == 4) {
    // The AMS sign-hash case. Fully fused single pass: 3 single-fold lazy
    // Horner stages per element (the k = 4 chain is exactly the depth where
    // single folds still fit in 64 bits — see HornerStepLazy1Fold61), then
    // canonicalize and apply the sign straight to the counter.
    const std::uint64_t* c3 = coeffs_.data() + 3 * n;
    const std::uint64_t* c2 = coeffs_.data() + 2 * n;
    const std::uint64_t* c1 = coeffs_.data() + 1 * n;
    const std::uint64_t* c0 = coeffs_.data();
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t acc = c3[i];
      acc = HornerStepLazy1Fold61(acc, xm, c2[i]);
      acc = HornerStepLazy1Fold61(acc, xm, c1[i]);
      acc = HornerStepLazy1Fold61(acc, xm, c0[i]);
      const std::uint64_t odd = CanonicalizeMod61(acc) & 1ULL;
      const std::uint64_t bits = delta_bits ^ ((odd ^ 1ULL) << 63);
      double signed_delta;
      std::memcpy(&signed_delta, &bits, sizeof(signed_delta));
      counters[i] += signed_delta;
    }
    return;
  }
  // General k: Horner tiles feed the counter updates directly, so the hash
  // values never round-trip through heap scratch.
  constexpr std::size_t kTile = 64;
  std::uint64_t acc[kTile];
  for (std::size_t base = 0; base < n; base += kTile) {
    const std::size_t len = std::min(kTile, n - base);
    const std::uint64_t* top =
        coeffs_.data() + static_cast<std::size_t>(k_ - 1) * n + base;
    for (std::size_t i = 0; i < len; ++i) acc[i] = top[i];
    for (int j = k_ - 2; j >= 0; --j) {
      const std::uint64_t* row =
          coeffs_.data() + static_cast<std::size_t>(j) * n + base;
      for (std::size_t i = 0; i < len; ++i) {
        acc[i] = HornerStepLazy61(acc[i], xm, row[i]);
      }
    }
    double* c = counters + base;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t odd = CanonicalizeMod61(acc[i]) & 1ULL;
      const std::uint64_t bits = delta_bits ^ ((odd ^ 1ULL) << 63);
      double signed_delta;
      std::memcpy(&signed_delta, &bits, sizeof(signed_delta));
      c[i] += signed_delta;
    }
  }
}

void KWiseHashBank::EnsureBlockTables() const {
  if (!split_lo_.empty() || coeffs_.empty()) return;
  split_lo_.resize(coeffs_.size());
  split_hi_.resize(coeffs_.size());
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    split_lo_[i] = coeffs_[i] & ((1ULL << 31) - 1);
    split_hi_[i] = coeffs_[i] >> 31;
  }
}

internal::SketchBankView KWiseHashBank::BlockView() const {
  EnsureBlockTables();
  internal::SketchBankView view;
  view.k = k_;
  view.n = n_;
  view.coeffs = coeffs_.data();
  view.lo31 = split_lo_.empty() ? nullptr : split_lo_.data();
  view.hi31 = split_hi_.empty() ? nullptr : split_hi_.data();
  return view;
}

void KWiseHashBank::AccumulateSignedBlock(std::span<const std::uint64_t> keys,
                                          double delta,
                                          double* counters) const {
  if (keys.empty() || n_ == 0) return;
  internal::PickSketchKernels().accumulate_signed_block(
      BlockView(), keys.data(), keys.size(), delta, counters);
}

void KWiseHashBank::EvalBlock(std::span<const std::uint64_t> keys,
                              std::uint64_t* out) const {
  if (keys.empty() || n_ == 0) return;
  internal::PickSketchKernels().eval_block(BlockView(), keys.data(),
                                           keys.size(), out);
}

std::uint64_t KWiseHashBank::Eval(std::size_t i, std::uint64_t x) const {
  const std::uint64_t xm = ReduceMod61(x);
  std::uint64_t acc = 0;
  for (int j = k_ - 1; j >= 0; --j) {
    acc = AddMod61(MulMod61(acc, xm),
                   coeffs_[static_cast<std::size_t>(j) * n_ + i]);
  }
  return acc;
}

void KWiseHashBank::SaveState(StateWriter& w) const {
  w.U32(static_cast<std::uint32_t>(k_));
  w.Size(n_);
  w.Vec(coeffs_);
}

bool KWiseHashBank::RestoreState(StateReader& r) {
  const int k = static_cast<int>(r.U32());
  const std::size_t n = r.Size();
  std::vector<std::uint64_t> coeffs;
  if (!r.Vec(&coeffs)) return false;
  if (coeffs.size() != static_cast<std::size_t>(k) * n) return r.Fail();
  if (n_ != 0 || k_ != 0) {
    // Constructed bank: the snapshot must describe this exact bank.
    if (k != k_ || n != n_ || coeffs != coeffs_) return r.Fail();
    return true;
  }
  k_ = k;
  n_ = n;
  coeffs_ = std::move(coeffs);
  // Derived split tables are a cache over coeffs_ — drop any stale copy.
  split_lo_.clear();
  split_hi_.clear();
  return true;
}

}  // namespace cyclestream
