#ifndef CYCLESTREAM_ENGINE_BUDGET_H_
#define CYCLESTREAM_ENGINE_BUDGET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <string_view>
#include <vector>

#include "engine/query.h"
#include "stream/space.h"

namespace cyclestream::engine {

/// Memory policy for one engine batch, in words (the same unit SpaceTracker
/// and AuditSpace use). Zero means "no cap".
struct BudgetPolicy {
  /// Upper bound on any single query's declared budget. A query declaring
  /// more can never run under this policy → rejected outright.
  std::size_t per_query_words = 0;
  /// Upper bound on the sum of declared budgets running concurrently. A
  /// query that fits the policy but not the currently free headroom is
  /// queued to a later wave (each wave is one more physical read of the
  /// stream, traded for staying under the cap).
  std::size_t aggregate_words = 0;
};

/// What the admission layer decided for one offered query.
enum class AdmissionOutcome {
  kAdmitted,  // Reserved; runs in the current wave.
  kQueued,    // Fits the policy, not the current headroom; later wave.
  kRejected,  // Can never fit this policy; never runs.
};

std::string_view AdmissionOutcomeName(AdmissionOutcome outcome);

/// Reservation bookkeeping against a BudgetPolicy. Reservations are held in
/// a SpaceTracker so the engine's own accounting is audited with the same
/// machinery as the algorithms it hosts: Offer() charges the declared words
/// on admission, Release() returns them when the query's wave completes.
///
/// Semantics (deterministic — pure function of policy + offer sequence):
///  - declared == 0 ("unbudgeted"): admitted freely when no aggregate cap is
///    configured; rejected under an aggregate cap (an unbudgeted query gives
///    the controller nothing to reserve, so admitting it would make the cap
///    unenforceable).
///  - declared > per_query_words (cap set): rejected.
///  - declared > aggregate_words (cap set): rejected — no wave can fit it.
///  - declared > free headroom under the aggregate cap: queued.
///  - otherwise: admitted, `declared` words reserved until Release().
class AdmissionController {
 public:
  explicit AdmissionController(const BudgetPolicy& policy);

  /// Decides the fate of a query declaring `declared_words`. Reserves on
  /// kAdmitted; no state change otherwise.
  AdmissionOutcome Offer(std::size_t declared_words);

  /// Returns an admitted query's reservation (call once per kAdmitted).
  /// The controller keeps a ledger of outstanding reservation sizes:
  /// releasing a size that was never admitted — or already released —
  /// aborts instead of silently corrupting the aggregate headroom all
  /// later waves admit against.
  void Release(std::size_t declared_words);

  const BudgetPolicy& policy() const { return policy_; }
  std::size_t reserved_words() const { return tracker_.Current(); }
  std::size_t peak_reserved_words() const { return tracker_.Peak(); }
  std::size_t outstanding_reservations() const { return ledger_.size(); }

 private:
  BudgetPolicy policy_;
  SpaceTracker tracker_;
  /// Sizes of the live reservations, one entry per admitted-and-unreleased
  /// query. A multiset because distinct queries may declare equal budgets.
  std::multiset<std::size_t> ledger_;
};

/// Aggregate accounting for one engine batch (broker, sharded, or
/// supervised).
struct EngineStats {
  std::uint64_t source_items_read = 0;  // Edges (or lists) read from the
                                        // source, summed over physical
                                        // passes — the "one read serves N
                                        // queries" claim is this counter.
  std::uint64_t items_delivered = 0;    // Process* calls across queries.
  std::uint64_t physical_passes = 0;    // Stream reads (all waves).
  std::uint64_t waves = 0;
  std::uint64_t queries_admitted = 0;
  std::uint64_t queries_queued = 0;   // Admitted in a wave after their first
                                      // offer (still counted in admitted).
  std::uint64_t queries_rejected = 0;
  std::uint64_t budget_peak_words = 0;  // Peak reserved words at any moment.
};

/// Runs one wave: `admitted` holds its slots (reserved), `queued` the slots
/// offered again after it. Returning false stops the admission loop with
/// the wave's reservations held (a drain, a failed resume cross-check).
using AdmissionWaveFn =
    std::function<bool(int wave, const std::vector<std::size_t>& admitted,
                       const std::vector<std::size_t>& queued)>;

/// The admission loop every engine front end runs (the broker, and the
/// sharded and supervised batches). Each round offers the pending slots in
/// slot order to one controller; the admitted ones form the next wave, the
/// queued ones wait for its reservations to be returned, the rejected ones
/// never run (their outcome keeps its default kRejected). Between waves
/// every reservation is released, and Offer rejects anything larger than
/// the aggregate cap outright, so a non-empty pending set always admits at
/// least its first slot. Counts waves, admissions, first-time queuings,
/// rejections and the reservation peak into `stats`. The same specs under
/// the same policy give the same waves in every front end, interrupted or
/// not — the schedule the bit-identity contracts rest on.
void RunAdmissionWaves(const BudgetPolicy& policy,
                       const std::vector<QuerySpec>& specs,
                       EngineStats& stats, const AdmissionWaveFn& run_wave);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_BUDGET_H_
