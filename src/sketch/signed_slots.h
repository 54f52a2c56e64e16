#ifndef CYCLESTREAM_SKETCH_SIGNED_SLOTS_H_
#define CYCLESTREAM_SKETCH_SIGNED_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/check.h"

namespace cyclestream {

/// Integer slots for linear ±1 sketches (arb-f2, the turnstile F2 kinds):
/// every counter is a sum of ±1 steps, so it is held as an integer and
/// bounded by the number of steps taken, which each sketch counts in one
/// u64 (`updates_`) that travels with its state and is summed on merge.
/// Keeping that count at most kMaxSlotSteps keeps every |slot| within
/// int32 by construction; no slot value is ever range-checked on the hot
/// path.

/// The most ±1 steps a sketch may take, its merges included.
inline constexpr std::uint64_t kMaxSlotSteps =
    std::numeric_limits<std::int32_t>::max();

/// `steps` + `more`, CHECK-failing when the sum exceeds kMaxSlotSteps
/// (`steps` is already within it): the stream, or the union of the states
/// being merged, is too long for int32 slots.
inline std::uint64_t AddSlotSteps(std::uint64_t steps, std::uint64_t more) {
  CHECK_LE(more, kMaxSlotSteps - steps)
      << "a linear sketch took more than 2^31-1 signed updates, which "
         "int32 slots cannot hold exactly";
  return steps + more;
}

/// True iff each of the `n` little-endian Slots at `bytes` (any alignment,
/// e.g. inside a mapped file) has magnitude at most `bound`.
template <typename Slot>
bool SlotsWithin(const char* bytes, std::size_t n, std::uint64_t bound) {
  static_assert(std::is_integral_v<Slot> && std::is_signed_v<Slot>);
  // Min/max reductions vectorize; |x| ≤ bound iff −bound ≤ x ≤ bound.
  Slot lo = 0;
  Slot hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Slot x;
    std::memcpy(&x, bytes + i * sizeof(Slot), sizeof(Slot));
    lo = x < lo ? x : lo;
    hi = x > hi ? x : hi;
  }
  using U = std::make_unsigned_t<Slot>;
  return static_cast<U>(hi) <= bound && U(0) - static_cast<U>(lo) <= bound;
}

/// acc[i] += kSign · the i-th of the `n` little-endian Slots at `bytes`
/// (any alignment: one unaligned load each after optimisation, never a
/// cast pointer).
template <typename Slot, int kSign = 1>
void AddSlots(const char* bytes, std::size_t n, Slot* acc) {
  for (std::size_t i = 0; i < n; ++i) {
    Slot x;
    std::memcpy(&x, bytes + i * sizeof(Slot), sizeof(Slot));
    acc[i] += static_cast<Slot>(kSign) * x;
  }
}

/// AddSlots, provided every slot at `bytes` has magnitude at most `bound`;
/// false, with `acc` unchanged, otherwise. Checks and adds one L1-sized
/// chunk at a time, so the blob is read from memory once; a bad chunk
/// subtracts the chunks already added (exact: every value is bounded).
template <typename Slot>
bool AddSlotsWithin(const char* bytes, std::size_t n, std::uint64_t bound,
                    Slot* acc) {
  constexpr std::size_t kChunk = 4096 / sizeof(Slot);
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    const std::size_t len = n - begin < kChunk ? n - begin : kChunk;
    const char* chunk = bytes + begin * sizeof(Slot);
    if (!SlotsWithin<Slot>(chunk, len, bound)) {
      AddSlots<Slot, -1>(bytes, begin, acc);
      return false;
    }
    AddSlots<Slot>(chunk, len, acc + begin);
  }
  return true;
}

/// The product of two ±1 signs with byte operations only: equal signs XOR
/// to 0 and opposite ones to −2, so OR-ing in 1 gives +1 or −1.
inline signed char SignProduct(signed char a, signed char b) {
  return static_cast<signed char>((a ^ b) | 1);
}

}  // namespace cyclestream

#endif  // CYCLESTREAM_SKETCH_SIGNED_SLOTS_H_
