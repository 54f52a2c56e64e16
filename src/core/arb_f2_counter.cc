#include "core/arb_f2_counter.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hash/kwise_bank.h"
#include "hash/rng.h"
#include "sketch/median_of_means.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream {

ArbF2FourCycleCounter::ArbF2FourCycleCounter(const Params& params)
    : params_(params) {
  CHECK_GE(params.num_vertices, 2u);
  CHECK_GT(params.base.epsilon, 0.0);
  const double eps = params.base.epsilon;
  int per_group = params.copies_per_group;
  if (per_group <= 0) {
    per_group =
        static_cast<int>(std::min(512.0, std::ceil(2.0 / (eps * eps))));
    per_group = std::max(per_group, 1);
  }
  const int groups = std::max(params.groups, 1);
  params_.copies_per_group = per_group;
  params_.groups = groups;

  std::uint64_t seed = params.base.seed ^ 0x41524246ULL;  // "ARBF"
  num_copies_ = static_cast<std::size_t>(groups * per_group);
  const std::size_t c = num_copies_;
  const std::size_t n = params.num_vertices;

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
  const KWiseHashBank alpha_bank(/*k=*/4, alpha_seeds);
  const KWiseHashBank beta_bank(/*k=*/4, beta_seeds);
  alpha_.resize(n * c);
  beta_.resize(n * c);
  for (std::size_t v = 0; v < n; ++v) {
    alpha_bank.SignAll(v, alpha_.data() + v * c);
    beta_bank.SignAll(v, beta_.data() + v * c);
  }
  acc_a_.assign(n * c, 0.0);
  acc_b_.assign(n * c, 0.0);
  acc_c_.assign(n * c, 0.0);
}

void ArbF2FourCycleCounter::Apply(const Edge& e, double sign) {
  const std::size_t c = num_copies_;
  const signed char* au = alpha_.data() + static_cast<std::size_t>(e.u) * c;
  const signed char* bu = beta_.data() + static_cast<std::size_t>(e.u) * c;
  const signed char* av = alpha_.data() + static_cast<std::size_t>(e.v) * c;
  const signed char* bv = beta_.data() + static_cast<std::size_t>(e.v) * c;
  double* accA_u = acc_a_.data() + static_cast<std::size_t>(e.u) * c;
  double* accB_u = acc_b_.data() + static_cast<std::size_t>(e.u) * c;
  double* accC_u = acc_c_.data() + static_cast<std::size_t>(e.u) * c;
  double* accA_v = acc_a_.data() + static_cast<std::size_t>(e.v) * c;
  double* accB_v = acc_b_.data() + static_cast<std::size_t>(e.v) * c;
  double* accC_v = acc_c_.data() + static_cast<std::size_t>(e.v) * c;
  // A_u += α_v etc. (the wedge centered at u gains neighbor v); six
  // contiguous sweeps over the copies.
  for (std::size_t i = 0; i < c; ++i) {
    accA_u[i] += sign * static_cast<double>(av[i]);
  }
  for (std::size_t i = 0; i < c; ++i) {
    accB_u[i] += sign * static_cast<double>(bv[i]);
  }
  for (std::size_t i = 0; i < c; ++i) {
    accC_u[i] +=
        sign * static_cast<double>(av[i]) * static_cast<double>(bv[i]);
  }
  for (std::size_t i = 0; i < c; ++i) {
    accA_v[i] += sign * static_cast<double>(au[i]);
  }
  for (std::size_t i = 0; i < c; ++i) {
    accB_v[i] += sign * static_cast<double>(bu[i]);
  }
  for (std::size_t i = 0; i < c; ++i) {
    accC_v[i] +=
        sign * static_cast<double>(au[i]) * static_cast<double>(bu[i]);
  }
}

void ArbF2FourCycleCounter::StartPass(int pass, std::size_t stream_length) {
  CHECK_EQ(pass, 0);
  (void)stream_length;
}

void ArbF2FourCycleCounter::ProcessEdge(int pass, const Edge& e,
                                        std::size_t position) {
  (void)pass;
  (void)position;
  Insert(e);
}

void ArbF2FourCycleCounter::Rescale(double factor) {
  for (double& x : acc_a_) x *= factor;
  for (double& x : acc_b_) x *= factor;
  for (double& x : acc_c_) x *= factor;
}

void ArbF2FourCycleCounter::EndPass(int pass) { (void)pass; }

double ArbF2FourCycleCounter::F2Estimate() const {
  const std::size_t n = params_.num_vertices;
  const std::size_t c = num_copies_;
  const double* pa = acc_a_.data();
  const double* pb = acc_b_.data();
  const double* pc = acc_c_.data();
  square_scratch_.resize(c);
  for (std::size_t i = 0; i < c; ++i) {
    double z = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      z += (pa[t * c + i] * pb[t * c + i] - pc[t * c + i]) / 2.0;
    }
    // E[Z²] = F₂/2 (see AdjF2FourCycleCounter::EndPass): rescale by 2.
    square_scratch_[i] = 2.0 * z * z;
  }
  return MedianOfMeans(square_scratch_,
                       static_cast<std::size_t>(params_.groups));
}

Estimate ArbF2FourCycleCounter::Result() const {
  Estimate result;
  result.value =
      std::max(0.0, (F2Estimate() - params_.f1_correction) / 4.0);
  // 3n accumulator words plus the two byte-packed ±1 sign caches per copy.
  const std::size_t n = params_.num_vertices;
  result.space_words = num_copies_ * (3 * n + 2 * n / 8 + 2);
  return result;
}

bool ArbF2FourCycleCounter::SaveState(StateWriter& w) const {
  // Only the accumulators are stream-dependent; the sign caches are
  // constructor-derived from the fingerprinted seed.
  w.U32(params_.num_vertices);
  w.Size(num_copies_);
  w.I64(params_.groups);
  w.Double(params_.base.epsilon);
  w.U64(params_.base.seed);
  w.Double(params_.f1_correction);
  w.Vec(acc_a_);
  w.Vec(acc_b_);
  w.Vec(acc_c_);
  return true;
}

bool ArbF2FourCycleCounter::ParseState(StateReader& r,
                                       std::string_view arrays[3]) const {
  if (r.U32() != params_.num_vertices || r.Size() != num_copies_ ||
      r.I64() != params_.groups || r.Double() != params_.base.epsilon ||
      r.U64() != params_.base.seed || r.Double() != params_.f1_correction) {
    return r.Fail();
  }
  const std::size_t bytes = acc_a_.size() * sizeof(double);
  for (int k = 0; k < 3; ++k) {
    if (!r.VecBytes<double>(&arrays[k])) return false;
    if (arrays[k].size() != bytes) return r.Fail();
  }
  return true;
}

bool ArbF2FourCycleCounter::RestoreState(StateReader& r) {
  std::string_view arrays[3];
  if (!ParseState(r, arrays)) return false;
  // Zero, then fold. -0.0 is the additive identity for every double (+0.0
  // is not for -0.0), so the fold below is a bit-exact copy of the blob.
  std::fill(acc_a_.begin(), acc_a_.end(), -0.0);
  std::fill(acc_b_.begin(), acc_b_.end(), -0.0);
  std::fill(acc_c_.begin(), acc_c_.end(), -0.0);
  AddArrays(arrays);
  return true;
}

bool ArbF2FourCycleCounter::MergeState(StateReader& r) {
  std::string_view arrays[3];
  if (!ParseState(r, arrays) || !r.AtEnd()) return r.Fail();
  AddArrays(arrays);
  return true;
}

void ArbF2FourCycleCounter::AddArrays(const std::string_view arrays[3]) {
  double* const accs[3] = {acc_a_.data(), acc_b_.data(), acc_c_.data()};
  for (int k = 0; k < 3; ++k) {
    // The blob sits at an arbitrary offset of a mapped file: load each
    // little-endian double with memcpy (one unaligned load after
    // optimization), never through a cast pointer.
    const char* src = arrays[k].data();
    double* acc = accs[k];
    for (std::size_t i = 0; i < acc_a_.size(); ++i) {
      double x;
      std::memcpy(&x, src + i * sizeof(double), sizeof(double));
      acc[i] += x;
    }
  }
}

bool ArbF2FourCycleCounter::MergeFrom(const ArbF2FourCycleCounter& rhs) {
  // The same config fields RestoreState fingerprints — a merge across
  // mismatched seeds or dimensions would be silent garbage.
  if (rhs.params_.num_vertices != params_.num_vertices ||
      rhs.num_copies_ != num_copies_ ||
      rhs.params_.groups != params_.groups ||
      rhs.params_.base.epsilon != params_.base.epsilon ||
      rhs.params_.base.seed != params_.base.seed ||
      rhs.params_.f1_correction != params_.f1_correction) {
    return false;
  }
  for (std::size_t i = 0; i < acc_a_.size(); ++i) acc_a_[i] += rhs.acc_a_[i];
  for (std::size_t i = 0; i < acc_b_.size(); ++i) acc_b_[i] += rhs.acc_b_[i];
  for (std::size_t i = 0; i < acc_c_.size(); ++i) acc_c_[i] += rhs.acc_c_[i];
  return true;
}

Estimate CountFourCyclesArbF2(const EdgeStream& stream,
                              const ArbF2FourCycleCounter::Params& params) {
  ArbF2FourCycleCounter counter(params);
  RunEdgeStream(counter, stream);
  return counter.Result();
}

}  // namespace cyclestream
