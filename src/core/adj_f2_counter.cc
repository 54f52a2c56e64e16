#include "core/adj_f2_counter.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "hash/kwise_bank.h"
#include "hash/rng.h"
#include "sketch/median_of_means.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream {

AdjF2FourCycleCounter::AdjF2FourCycleCounter(const Params& params)
    : params_(params) {
  CHECK_GE(params.num_vertices, 2u);
  CHECK_GT(params.base.epsilon, 0.0);
  CHECK_GE(params.base.t_guess, 1.0);
  const double eps = params.base.epsilon;
  const double n = static_cast<double>(params.num_vertices);
  const double t = params.base.t_guess;

  z_cap_ = static_cast<std::uint32_t>(std::ceil(1.0 / eps));

  // γ = ε·min(1, εT/n²); per-group copies ~ 2/γ².
  const double gamma = eps * std::min(1.0, eps * t / (n * n));
  int per_group = params.copies_per_group;
  if (per_group <= 0) {
    per_group = static_cast<int>(
        std::min(4096.0, std::ceil(2.0 / (gamma * gamma))));
    per_group = std::max(per_group, 1);
  }
  const int groups = std::max(params.groups, 1);
  std::uint64_t seed = params.base.seed ^ 0x41444a46ULL;  // "ADJF"
  num_copies_ = static_cast<std::size_t>(groups * per_group);
  const std::size_t c = num_copies_;
  const std::size_t nv = params.num_vertices;
  // Seed chain: the historical code drew both seeds inside an emplace_back
  // argument list, which gcc evaluates right-to-left — the beta seed came
  // off the splitmix chain first. Preserved verbatim so the sign streams
  // (and therefore all estimates) are unchanged.
  std::vector<std::uint64_t> alpha_seeds(c);
  std::vector<std::uint64_t> beta_seeds(c);
  for (std::size_t i = 0; i < c; ++i) {
    beta_seeds[i] = SplitMix64(seed);
    alpha_seeds[i] = SplitMix64(seed);
  }
  alpha_.resize(nv * c);
  beta_.resize(nv * c);
  KWiseHashBank(/*k=*/4, alpha_seeds).SignTable(nv, alpha_.data());
  KWiseHashBank(/*k=*/4, beta_seeds).SignTable(nv, beta_.data());
  acc_a_.assign(c, 0.0);
  acc_b_.assign(c, 0.0);
  acc_c_.assign(c, 0.0);
  z_.assign(c, 0.0);
  params_.groups = groups;
  params_.copies_per_group = per_group;

  // Pair sampling for F1(z): paper rate p = 6·ε⁻⁴·n²·T⁻²·log n, clamped.
  pair_rate_ = params.pair_rate > 0.0
                   ? std::min(1.0, params.pair_rate)
                   : std::min(1.0, 6.0 * std::pow(eps, -4.0) * n * n /
                                       (t * t) * std::log2(n + 2.0));

  // Materialize the pair sample without enumerating all C(n,2) pairs:
  // draw the Binomial count, then distinct uniform pairs.
  Rng rng(params.base.seed ^ 0xf1f1ULL);
  const double total_pairs = n * (n - 1.0) / 2.0;
  std::uint64_t want =
      pair_rate_ >= 1.0
          ? static_cast<std::uint64_t>(total_pairs)
          : rng.Binomial(static_cast<std::uint64_t>(total_pairs), pair_rate_);
  if (pair_rate_ >= 1.0 && total_pairs > 4e6) {
    // Degenerate parameterization (tiny T guess): cap the explicit sample
    // so the simulation stays tractable; the estimate remains unbiased with
    // the adjusted rate.
    want = 4000000;
    pair_rate_ = static_cast<double>(want) / total_pairs;
  }
  std::unordered_set<std::uint64_t, Mix64Hash> chosen;
  chosen.reserve(want * 2);
  while (chosen.size() < want) {
    const VertexId a = static_cast<VertexId>(rng.UniformInt(params.num_vertices));
    const VertexId b = static_cast<VertexId>(rng.UniformInt(params.num_vertices));
    if (a == b) continue;
    if (chosen.insert(PairKey(a, b)).second) {
      SampledPair sp;
      sp.u = std::min(a, b);
      sp.v = std::max(a, b);
      const auto idx = static_cast<std::uint32_t>(pairs_.size());
      pairs_.push_back(sp);
      pairs_by_vertex_[sp.u].push_back(idx);
      pairs_by_vertex_[sp.v].push_back(idx);
    }
  }
}

void AdjF2FourCycleCounter::StartPass(int pass, std::size_t num_lists) {
  (void)pass;
  (void)num_lists;
}

void AdjF2FourCycleCounter::ProcessList(int pass, const AdjacencyList& list,
                                        std::size_t position) {
  CHECK_EQ(pass, 0);
  // F2 copies: stream the list through the four-counter estimator. The
  // copy-minor layout turns the per-neighbor inner loop into three
  // contiguous C-length sweeps; each copy's a/b/c/z sees the same additions
  // in the same order as the historical per-struct loop.
  const std::size_t c = num_copies_;
  std::fill(acc_a_.begin(), acc_a_.end(), 0.0);
  std::fill(acc_b_.begin(), acc_b_.end(), 0.0);
  std::fill(acc_c_.begin(), acc_c_.end(), 0.0);
  for (VertexId u : list.neighbors) {
    const signed char* au = alpha_.data() + static_cast<std::size_t>(u) * c;
    const signed char* bu = beta_.data() + static_cast<std::size_t>(u) * c;
    double* a = acc_a_.data();
    double* b = acc_b_.data();
    double* cc = acc_c_.data();
    for (std::size_t i = 0; i < c; ++i) {
      a[i] += static_cast<double>(au[i]);
    }
    for (std::size_t i = 0; i < c; ++i) {
      b[i] += static_cast<double>(bu[i]);
    }
    for (std::size_t i = 0; i < c; ++i) {
      cc[i] += static_cast<double>(au[i]) * static_cast<double>(bu[i]);
    }
  }
  for (std::size_t i = 0; i < c; ++i) {
    z_[i] += (acc_a_[i] * acc_b_[i] - acc_c_[i]) / 2.0;
  }

  // F1(z) pairs: stamp endpoints as they appear in this list; increment when
  // both endpoints carry this list's stamp.
  const std::uint64_t stamp = position;
  for (VertexId w : list.neighbors) {
    auto it = pairs_by_vertex_.find(w);
    if (it == pairs_by_vertex_.end()) continue;
    for (std::uint32_t idx : it->second) {
      SampledPair& sp = pairs_[idx];
      if (sp.u == w) {
        sp.stamp_u = stamp;
      } else {
        sp.stamp_v = stamp;
      }
      if (sp.stamp_u == stamp && sp.stamp_v == stamp && sp.counted != stamp) {
        sp.counted = stamp;
        if (sp.z < z_cap_) ++sp.z;
      }
    }
  }

  if ((position & 0x3f) == 0) UpdateSpace();
}

void AdjF2FourCycleCounter::UpdateSpace() {
  // Per copy: the four counters (A/B/C/Z) plus the two ±1 sign caches at 8
  // packed signs per word. Pairs: endpoints, z, and the two stamps.
  space_.SetComponent("sketch",
                      num_copies_ * (4 + 2 * params_.num_vertices / 8));
  space_.SetComponent("pairs", pairs_.size() * 5);
}

std::size_t AdjF2FourCycleCounter::AuditSpace() const {
  // Copy count taken from the real Z array and sign-cache size from the
  // real byte buffers, cross-checking the num_copies_/num_vertices-derived
  // accounting formula.
  const std::size_t copies = z_.size();
  const std::size_t signs_per_copy =
      copies == 0 ? 0 : 2 * (alpha_.size() / copies) / 8;
  return copies * (4 + signs_per_copy) + pairs_.size() * 5;
}

void AdjF2FourCycleCounter::EndPass(int pass) {
  CHECK_EQ(pass, 0);
  // E[Z²] = F₂/2: the symmetrized basic estimator
  // Z = Σ_{unordered {u,v}} x_{uv}(α_u β_v + α_v β_u)/2 has per-coordinate
  // second moment 1/2 (the αβ cross term vanishes under 4-wise
  // independence), so the unbiased estimate is 2·Z².
  square_scratch_.resize(num_copies_);
  for (std::size_t i = 0; i < num_copies_; ++i) {
    square_scratch_[i] = 2.0 * z_[i] * z_[i];
  }
  f2_estimate_ =
      MedianOfMeans(square_scratch_, static_cast<std::size_t>(params_.groups));

  double z_sum = 0.0;
  for (const SampledPair& sp : pairs_) z_sum += sp.z;
  f1_estimate_ = pair_rate_ > 0.0 ? z_sum / pair_rate_ : 0.0;

  UpdateSpace();
  result_.value = std::max(0.0, (f2_estimate_ - f1_estimate_) / 4.0);
  result_.space_words = space_.Peak();
}

bool AdjF2FourCycleCounter::SaveState(StateWriter& w) const {
  // Config fingerprint. The sign caches, pair sample identities, and
  // pairs_by_vertex_ index are all constructor-derived from these, so only
  // the running counters and per-pair observations need to travel.
  w.U32(params_.num_vertices);
  w.U32(z_cap_);
  w.Double(pair_rate_);
  w.Size(num_copies_);
  w.I64(params_.groups);
  w.Double(params_.base.epsilon);
  w.Double(params_.base.t_guess);
  w.U64(params_.base.seed);
  w.Vec(z_);
  w.Size(pairs_.size());
  for (const SampledPair& sp : pairs_) {
    // Fields written individually: SampledPair has alignment padding, so a
    // byte-image dump would leak indeterminate bytes into the snapshot.
    w.U32(sp.u);
    w.U32(sp.v);
    w.U32(sp.z);
    w.U64(sp.stamp_u);
    w.U64(sp.stamp_v);
    w.U64(sp.counted);
  }
  space_.SaveState(w);
  return true;
}

bool AdjF2FourCycleCounter::RestoreState(StateReader& r) {
  if (r.U32() != params_.num_vertices || r.U32() != z_cap_ ||
      r.Double() != pair_rate_ || r.Size() != num_copies_ ||
      r.I64() != params_.groups || r.Double() != params_.base.epsilon ||
      r.Double() != params_.base.t_guess || r.U64() != params_.base.seed) {
    return r.Fail();
  }
  std::vector<double> z;
  if (!r.Vec(&z) || z.size() != z_.size()) return r.Fail();
  if (r.Size() != pairs_.size()) return r.Fail();
  z_ = std::move(z);
  for (SampledPair& sp : pairs_) {
    if (r.U32() != sp.u || r.U32() != sp.v) return r.Fail();
    sp.z = r.U32();
    sp.stamp_u = r.U64();
    sp.stamp_v = r.U64();
    sp.counted = r.U64();
  }
  if (!r.ok()) return false;
  return space_.RestoreState(r);
}

Estimate CountFourCyclesAdjF2(const AdjacencyStream& stream,
                              const AdjF2FourCycleCounter::Params& params) {
  AdjF2FourCycleCounter counter(params);
  RunAdjacencyStream(counter, stream);
  return counter.Result();
}

}  // namespace cyclestream
