#include "core/arb_f2_counter.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hash/kwise_bank.h"
#include "hash/rng.h"
#include "sketch/median_of_means.h"
#include "sketch/signed_slots.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream {

template <typename Slot>
BasicArbF2FourCycleCounter<Slot>::BasicArbF2FourCycleCounter(
    const Params& params)
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
  acc_a_.assign(n * c, Slot{0});
  acc_b_.assign(n * c, Slot{0});
  acc_c_.assign(n * c, Slot{0});
}

template <typename Slot>
template <int kSign>
void BasicArbF2FourCycleCounter<Slot>::Apply(const Edge& e) {
  if constexpr (kIntegerSlots) {
    // A self-loop steps each slot of its one row twice.
    updates_ = AddSlotSteps(updates_, e.u == e.v ? 2 : 1);
  }
  const std::size_t c = num_copies_;
  const std::size_t u_row = static_cast<std::size_t>(e.u) * c;
  const std::size_t v_row = static_cast<std::size_t>(e.v) * c;
  const signed char* au = alpha_.data() + u_row;
  const signed char* bu = beta_.data() + u_row;
  const signed char* av = alpha_.data() + v_row;
  const signed char* bv = beta_.data() + v_row;
  Slot* accA_u = acc_a_.data() + u_row;
  Slot* accB_u = acc_b_.data() + u_row;
  Slot* accC_u = acc_c_.data() + u_row;
  Slot* accA_v = acc_a_.data() + v_row;
  Slot* accB_v = acc_b_.data() + v_row;
  Slot* accC_v = acc_c_.data() + v_row;
  constexpr Slot kStep = kSign;
  // A_u += α_v etc. (the wedge centered at u gains neighbor v); six
  // contiguous sweeps over the copies.
  for (std::size_t i = 0; i < c; ++i) {
    accA_u[i] += kStep * static_cast<Slot>(av[i]);
  }
  for (std::size_t i = 0; i < c; ++i) {
    accB_u[i] += kStep * static_cast<Slot>(bv[i]);
  }
  for (std::size_t i = 0; i < c; ++i) {
    accC_u[i] += kStep * static_cast<Slot>(SignProduct(av[i], bv[i]));
  }
  for (std::size_t i = 0; i < c; ++i) {
    accA_v[i] += kStep * static_cast<Slot>(au[i]);
  }
  for (std::size_t i = 0; i < c; ++i) {
    accB_v[i] += kStep * static_cast<Slot>(bu[i]);
  }
  for (std::size_t i = 0; i < c; ++i) {
    accC_v[i] += kStep * static_cast<Slot>(SignProduct(au[i], bu[i]));
  }
}

template <typename Slot>
void BasicArbF2FourCycleCounter<Slot>::Insert(const Edge& e) {
  Apply<+1>(e);
}

template <typename Slot>
void BasicArbF2FourCycleCounter<Slot>::Delete(const Edge& e) {
  Apply<-1>(e);
}

template <typename Slot>
void BasicArbF2FourCycleCounter<Slot>::StartPass(int pass,
                                                 std::size_t stream_length) {
  CHECK_EQ(pass, 0);
  (void)stream_length;
}

template <typename Slot>
void BasicArbF2FourCycleCounter<Slot>::ProcessEdge(int pass, const Edge& e,
                                                   std::size_t position) {
  (void)pass;
  (void)position;
  Insert(e);
}

template <typename Slot>
void BasicArbF2FourCycleCounter<Slot>::Rescale(double factor)
  requires(!kIntegerSlots)
{
  for (double& x : acc_a_) x *= factor;
  for (double& x : acc_b_) x *= factor;
  for (double& x : acc_c_) x *= factor;
}

template <typename Slot>
void BasicArbF2FourCycleCounter<Slot>::EndPass(int pass) {
  (void)pass;
}

template <typename Slot>
double BasicArbF2FourCycleCounter<Slot>::F2Estimate() const {
  const std::size_t n = params_.num_vertices;
  const std::size_t c = num_copies_;
  // Z_c = Σ_t (A_t·B_t − C_t)/2, streamed row by row: row t is the
  // contiguous C-slot run at t·C. Integer slots sum in 64 bits; an edge
  // steps two rows, so Σ_t |A_t| ≤ 2·updates_ and the sum is at most
  // 2·updates_² + 2·updates_ < 2^63 in magnitude. It is accumulated as
  // uint64 (wrapping, never undefined) and exact whenever it fits in
  // int64, which the step bound guarantees for every state built by ingest
  // and merge. Double slots keep the decay path's per-term halving.
  using Sum = std::conditional_t<kIntegerSlots, std::uint64_t, double>;
  std::vector<Sum> sums(c, Sum{0});
  for (std::size_t t = 0; t < n; ++t) {
    const Slot* a = acc_a_.data() + t * c;
    const Slot* b = acc_b_.data() + t * c;
    const Slot* cc = acc_c_.data() + t * c;
    for (std::size_t i = 0; i < c; ++i) {
      if constexpr (kIntegerSlots) {
        sums[i] += static_cast<std::uint64_t>(
            std::int64_t{a[i]} * std::int64_t{b[i]} - std::int64_t{cc[i]});
      } else {
        sums[i] += (a[i] * b[i] - cc[i]) / 2.0;
      }
    }
  }
  std::vector<double> squares(c);
  for (std::size_t i = 0; i < c; ++i) {
    double z;
    if constexpr (kIntegerSlots) {
      z = static_cast<double>(static_cast<std::int64_t>(sums[i])) / 2.0;
    } else {
      z = sums[i];
    }
    // E[Z²] = F₂/2 (see AdjF2FourCycleCounter::EndPass): rescale by 2.
    squares[i] = 2.0 * z * z;
  }
  return MedianOfMeans(squares, static_cast<std::size_t>(params_.groups));
}

template <typename Slot>
Estimate BasicArbF2FourCycleCounter<Slot>::Result() const {
  Estimate result;
  result.value =
      std::max(0.0, (F2Estimate() - params_.f1_correction) / 4.0);
  // 3n accumulator words plus the two byte-packed ±1 sign caches per copy.
  const std::size_t n = params_.num_vertices;
  result.space_words = num_copies_ * (3 * n + 2 * n / 8 + 2);
  return result;
}

template <typename Slot>
bool BasicArbF2FourCycleCounter<Slot>::SaveState(StateWriter& w) const {
  // Only the accumulators (and their step count) are stream-dependent;
  // the sign caches are constructor-derived from the fingerprinted seed.
  w.U32(params_.num_vertices);
  w.Size(num_copies_);
  w.I64(params_.groups);
  w.Double(params_.base.epsilon);
  w.U64(params_.base.seed);
  w.Double(params_.f1_correction);
  if constexpr (kIntegerSlots) w.U64(updates_);
  w.Vec(acc_a_);
  w.Vec(acc_b_);
  w.Vec(acc_c_);
  return true;
}

template <typename Slot>
bool BasicArbF2FourCycleCounter<Slot>::ParseState(
    StateReader& r, std::string_view arrays[3],
    std::uint64_t* updates) const {
  if (r.U32() != params_.num_vertices || r.Size() != num_copies_ ||
      r.I64() != params_.groups || r.Double() != params_.base.epsilon ||
      r.U64() != params_.base.seed || r.Double() != params_.f1_correction) {
    return r.Fail();
  }
  *updates = 0;
  if constexpr (kIntegerSlots) {
    *updates = r.U64();
    if (!r.ok() || *updates > kMaxSlotSteps) return r.Fail();
  }
  const std::size_t bytes = acc_a_.size() * sizeof(Slot);
  for (int k = 0; k < 3; ++k) {
    if (!r.VecBytes<Slot>(&arrays[k])) return false;
    if (arrays[k].size() != bytes) return r.Fail();
  }
  return true;
}

template <typename Slot>
bool BasicArbF2FourCycleCounter<Slot>::RestoreState(StateReader& r) {
  std::string_view arrays[3];
  std::uint64_t updates = 0;
  if (!ParseState(r, arrays, &updates)) return false;
  if constexpr (kIntegerSlots) {
    // A slot beyond the blob's own step count cannot come from a counter.
    for (int k = 0; k < 3; ++k) {
      if (!SlotsWithin<Slot>(arrays[k].data(), acc_a_.size(), updates)) {
        return r.Fail();
      }
    }
  }
  Slot* const accs[3] = {acc_a_.data(), acc_b_.data(), acc_c_.data()};
  for (int k = 0; k < 3; ++k) {
    std::memcpy(accs[k], arrays[k].data(), arrays[k].size());
  }
  updates_ = updates;
  return true;
}

template <typename Slot>
bool BasicArbF2FourCycleCounter<Slot>::MergeState(StateReader& r) {
  std::string_view arrays[3];
  std::uint64_t updates = 0;
  if (!ParseState(r, arrays, &updates) || !r.AtEnd()) return r.Fail();
  Slot* const accs[3] = {acc_a_.data(), acc_b_.data(), acc_c_.data()};
  const std::size_t n = acc_a_.size();
  if constexpr (kIntegerSlots) {
    const std::uint64_t merged = AddSlotSteps(updates_, updates);
    for (int k = 0; k < 3; ++k) {
      if (!AddSlotsWithin<Slot>(arrays[k].data(), n, updates, accs[k])) {
        // As RestoreState: reject, leaving this counter untouched.
        for (int j = 0; j < k; ++j) {
          AddSlots<Slot, -1>(arrays[j].data(), n, accs[j]);
        }
        return r.Fail();
      }
    }
    updates_ = merged;
  } else {
    for (int k = 0; k < 3; ++k) AddSlots<Slot>(arrays[k].data(), n, accs[k]);
  }
  return true;
}

template <typename Slot>
bool BasicArbF2FourCycleCounter<Slot>::MergeFrom(
    const BasicArbF2FourCycleCounter& rhs) {
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
  updates_ = AddSlotSteps(updates_, rhs.updates_);
  for (std::size_t i = 0; i < acc_a_.size(); ++i) acc_a_[i] += rhs.acc_a_[i];
  for (std::size_t i = 0; i < acc_b_.size(); ++i) acc_b_[i] += rhs.acc_b_[i];
  for (std::size_t i = 0; i < acc_c_.size(); ++i) acc_c_[i] += rhs.acc_c_[i];
  return true;
}

template class BasicArbF2FourCycleCounter<std::int32_t>;
template class BasicArbF2FourCycleCounter<double>;

Estimate CountFourCyclesArbF2(const EdgeStream& stream,
                              const ArbF2Params& params) {
  ArbF2FourCycleCounter counter(params);
  RunEdgeStream(counter, stream);
  return counter.Result();
}

}  // namespace cyclestream
