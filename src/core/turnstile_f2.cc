#include "core/turnstile_f2.h"

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

// --- BasicTurnstileF2FourCycleCounter -------------------------------------

template <typename Slot>
void BasicTurnstileF2FourCycleCounter<Slot>::StartPass(
    int pass, std::size_t stream_length) {
  inner_.StartPass(pass, stream_length);
}

template <typename Slot>
void BasicTurnstileF2FourCycleCounter<Slot>::ProcessUpdate(
    int pass, const TurnstileUpdate& u, std::size_t position) {
  (void)pass;
  (void)position;
  if (u.op == TurnstileOp::kInsert) {
    inner_.Insert(u.edge);
  } else {
    inner_.Delete(u.edge);
  }
}

template <typename Slot>
void BasicTurnstileF2FourCycleCounter<Slot>::EndPass(int pass) {
  inner_.EndPass(pass);
}

template <typename Slot>
bool BasicTurnstileF2FourCycleCounter<Slot>::Rescale(double factor) {
  if constexpr (std::is_integral_v<Slot>) {
    (void)factor;
    return false;
  } else {
    inner_.Rescale(factor);
    return true;
  }
}

template <typename Slot>
bool BasicTurnstileF2FourCycleCounter<Slot>::SaveState(StateWriter& w) const {
  return inner_.SaveState(w);
}

template <typename Slot>
bool BasicTurnstileF2FourCycleCounter<Slot>::RestoreState(StateReader& r) {
  return inner_.RestoreState(r);
}

template <typename Slot>
bool BasicTurnstileF2FourCycleCounter<Slot>::MergeFrom(
    const TurnstileStreamAlgorithm& other) {
  if (other.CheckpointId() != CheckpointId()) return false;
  const auto& rhs =
      static_cast<const BasicTurnstileF2FourCycleCounter&>(other);
  return inner_.MergeFrom(rhs.inner_);
}

template class BasicTurnstileF2FourCycleCounter<std::int32_t>;
template class BasicTurnstileF2FourCycleCounter<double>;

// --- BasicTurnstileF2TriangleCounter --------------------------------------

template <typename Slot>
BasicTurnstileF2TriangleCounter<Slot>::BasicTurnstileF2TriangleCounter(
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

  num_copies_ = static_cast<std::size_t>(groups * per_group);
  z_.assign(num_copies_, Slot{0});
}

template <typename Slot>
void BasicTurnstileF2TriangleCounter<Slot>::BuildSignTable() {
  std::uint64_t seed = params_.base.seed ^ 0x54524933ULL;  // "TRI3"
  const std::size_t c = num_copies_;
  const std::size_t n = params_.num_vertices;
  std::vector<std::uint64_t> seeds(c);
  for (std::size_t i = 0; i < c; ++i) seeds[i] = SplitMix64(seed);
  sigma_.resize(n * c);
  KWiseHashBank(/*k=*/6, seeds).SignTable(n, sigma_.data());
}

template <typename Slot>
template <int kSign>
void BasicTurnstileF2TriangleCounter<Slot>::Apply(const Edge& e) {
  if (sigma_.empty()) BuildSignTable();
  if constexpr (kIntegerSlots) updates_ = AddSlotSteps(updates_, 1);
  const std::size_t c = num_copies_;
  const signed char* su = sigma_.data() + static_cast<std::size_t>(e.u) * c;
  const signed char* sv = sigma_.data() + static_cast<std::size_t>(e.v) * c;
  constexpr Slot kStep = kSign;
  for (std::size_t i = 0; i < c; ++i) {
    z_[i] += kStep * static_cast<Slot>(SignProduct(su[i], sv[i]));
  }
}

template <typename Slot>
void BasicTurnstileF2TriangleCounter<Slot>::StartPass(
    int pass, std::size_t stream_length) {
  CHECK_EQ(pass, 0);
  (void)stream_length;
}

template <typename Slot>
void BasicTurnstileF2TriangleCounter<Slot>::ProcessUpdate(
    int pass, const TurnstileUpdate& u, std::size_t position) {
  (void)pass;
  (void)position;
  if (u.op == TurnstileOp::kInsert) {
    Apply<+1>(u.edge);
  } else {
    Apply<-1>(u.edge);
  }
}

template <typename Slot>
void BasicTurnstileF2TriangleCounter<Slot>::EndPass(int pass) {
  (void)pass;
}

template <typename Slot>
Estimate BasicTurnstileF2TriangleCounter<Slot>::Result() const {
  const std::size_t c = num_copies_;
  cube_scratch_.resize(c);
  for (std::size_t i = 0; i < c; ++i) {
    // |Z| ≤ 2^31 − 1 on integer slots: the conversion is exact.
    const double z = static_cast<double>(z_[i]);
    cube_scratch_[i] = z * z * z / 6.0;
  }
  Estimate result;
  result.value = std::max(
      0.0, MedianOfMeans(cube_scratch_,
                         static_cast<std::size_t>(params_.groups)));
  // One Z word per copy plus the byte-packed ±1 sign cache.
  const std::size_t n = params_.num_vertices;
  result.space_words = num_copies_ * (1 + n / 8 + 1);
  return result;
}

template <typename Slot>
bool BasicTurnstileF2TriangleCounter<Slot>::Rescale(double factor) {
  if constexpr (kIntegerSlots) {
    (void)factor;
    return false;
  } else {
    for (double& z : z_) z *= factor;
    return true;
  }
}

template <typename Slot>
bool BasicTurnstileF2TriangleCounter<Slot>::SaveState(StateWriter& w) const {
  // Only the Z counters (and their step count) are stream-dependent; the
  // sign cache is constructor-derived from the fingerprinted seed.
  w.U32(params_.num_vertices);
  w.Size(num_copies_);
  w.I64(params_.groups);
  w.Double(params_.base.epsilon);
  w.U64(params_.base.seed);
  if constexpr (kIntegerSlots) w.U64(updates_);
  w.Vec(z_);
  return true;
}

template <typename Slot>
bool BasicTurnstileF2TriangleCounter<Slot>::RestoreState(StateReader& r) {
  if (r.U32() != params_.num_vertices || r.Size() != num_copies_ ||
      r.I64() != params_.groups || r.Double() != params_.base.epsilon ||
      r.U64() != params_.base.seed) {
    return r.Fail();
  }
  std::uint64_t updates = 0;
  if constexpr (kIntegerSlots) {
    updates = r.U64();
    if (!r.ok() || updates > kMaxSlotSteps) return r.Fail();
  }
  std::string_view bytes;
  if (!r.VecBytes<Slot>(&bytes)) return false;
  if (bytes.size() != z_.size() * sizeof(Slot)) return r.Fail();
  if constexpr (kIntegerSlots) {
    if (!SlotsWithin<Slot>(bytes.data(), z_.size(), updates)) {
      return r.Fail();
    }
  }
  std::memcpy(z_.data(), bytes.data(), bytes.size());
  updates_ = updates;
  return true;
}

template <typename Slot>
bool BasicTurnstileF2TriangleCounter<Slot>::MergeFrom(
    const TurnstileStreamAlgorithm& other) {
  if (other.CheckpointId() != CheckpointId()) return false;
  const auto& rhs = static_cast<const BasicTurnstileF2TriangleCounter&>(other);
  if (rhs.params_.num_vertices != params_.num_vertices ||
      rhs.num_copies_ != num_copies_ ||
      rhs.params_.groups != params_.groups ||
      rhs.params_.base.epsilon != params_.base.epsilon ||
      rhs.params_.base.seed != params_.base.seed) {
    return false;
  }
  updates_ = AddSlotSteps(updates_, rhs.updates_);
  for (std::size_t i = 0; i < z_.size(); ++i) z_[i] += rhs.z_[i];
  return true;
}

template class BasicTurnstileF2TriangleCounter<std::int64_t>;
template class BasicTurnstileF2TriangleCounter<double>;

}  // namespace cyclestream
