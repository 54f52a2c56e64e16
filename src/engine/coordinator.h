#ifndef CYCLESTREAM_ENGINE_COORDINATOR_H_
#define CYCLESTREAM_ENGINE_COORDINATOR_H_

#include <sys/types.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/broker.h"
#include "engine/query.h"
#include "engine/shard.h"

namespace cyclestream::engine {

/// Coordinator half of the multi-process engine (DESIGN.md §14): partitions
/// the stream into W contiguous shard ranges, runs one worker per shard
/// (in-process — the only launch for text graphs and shuffled orders — or
/// as `cyclestream_cli shard-worker` subprocesses), and folds the workers'
/// serialized states in fixed shard order with the exact-integer
/// MergeState path.
///
/// Determinism contract: every query's merged state — and therefore every
/// estimate, space audit, and deterministic manifest field — is
/// bit-identical to the single-process StreamBroker run of the same specs
/// over the same stream, at any W. The argument is the linear-state one
/// (DESIGN.md §13.2), crossed over the process boundary: shard states are
/// integer slots, each a sum of ±1 deltas bounded by the state's step
/// count (CHECKed to stay within int32 across the merge), the stream
/// partition is contiguous and exhaustive, and the fold visits
/// shards in fixed order 0..W−1 — so the merged accumulators receive the
/// additions the unsharded pass performs, and integer addition is exact.
/// W = 1 is the oracle: one worker over the whole stream, merged with
/// nothing.
///
/// Fault tolerance: with an epoch cadence configured, each worker
/// checkpoints its state every epoch_edges slice-local edges (durable
/// atomic write). A worker that dies is relaunched once, alone, resuming
/// from its last checkpoint — live workers and finished shards are never
/// re-run; a second failure aborts the batch. RunShardedBatch runs on the
/// supervisor's wave loop (engine/supervisor.h) with that fixed policy and
/// deletes each wave's state and checkpoint files once they are folded:
/// the recovery root for an interrupted batch is `serve --daemon --resume`,
/// which keeps them.

/// How workers are executed.
enum class ShardLaunch {
  kInProcess,   // Direct function calls, sequential: hermetic, no fork.
  kSubprocess,  // fork/exec `<worker_binary> shard-worker ...` per shard.
};

/// One sharded batch's execution plan.
struct ShardPlanOptions {
  int num_workers = 1;
  /// Edges per ProcessEdgeBlock inside each worker (throughput only).
  std::size_t block_edges = 4096;
  /// Admission policy — identical semantics to BrokerOptions::budget (both
  /// run RunAdmissionWaves, engine/budget.h).
  BudgetPolicy budget;
  /// Worker checkpoint cadence in slice-local edges; 0 disables
  /// checkpoints (and with them, recovery).
  std::uint64_t epoch_edges = 0;
  /// Directory for spec files, worker state files, checkpoints, and (for
  /// the daemon) its manifest. Must exist. Required (CHECKed).
  std::string shard_dir;
  ShardLaunch launch = ShardLaunch::kInProcess;
  /// Worker executable for kSubprocess; empty resolves /proc/self/exe.
  std::string worker_binary;
  /// Binary edge-stream path handed to subprocess workers; required for
  /// kSubprocess (they map the stream themselves).
  std::string stream_path;
  /// Fault injection: worker `kill_worker` dies (exit kKilledExitCode)
  /// after `kill_after_edges` slice-local edges on its first launch of the
  /// first wave; the coordinator then recovers it. -1 disables.
  int kill_worker = -1;
  std::uint64_t kill_after_edges = 0;
};

/// Outcome of a sharded batch: the broker-shaped results plus recovery
/// accounting (execution-dependent — kept out of deterministic manifests).
struct ShardBatchResult {
  std::vector<QueryOutcome> outcomes;  // Slot order, like the broker's.
  EngineStats stats;
  std::uint64_t workers_launched = 0;   // Launches, relaunches included.
  std::uint64_t workers_recovered = 0;  // Relaunches after a failure.
};

/// Runs `specs` over `edges` under the sharded engine. Every spec must be a
/// shard-mergeable edge kind (IsShardMergeableKind; CHECKed). Admission,
/// waves, outcomes, and stats replicate StreamBroker::RunEdgeQueries
/// exactly. Defined in supervisor.cc: it is the supervisor's wave loop with
/// one immediate relaunch per worker, no deadlines, no daemon manifest, and
/// each wave's files removed once folded. Aborts if a worker fails twice.
ShardBatchResult RunShardedBatch(const std::vector<QuerySpec>& specs,
                                 std::span<const Edge> edges,
                                 const ShardPlanOptions& options);

// ---------------------------------------------------------------------------
// Worker-execution toolkit
// ---------------------------------------------------------------------------
// The launch/collect/merge/finalize primitives the wave loop in
// engine/supervisor.cc is built from: the determinism-critical state
// handling, kept apart from the retry, deadline and drain policy.

/// One worker's launch parameters for a wave.
struct WorkerLaunch {
  ShardWorkerConfig config;
  std::string state_path;
};

/// Resolves the worker executable: `configured` when non-empty, else
/// /proc/self/exe (aborts if that cannot be resolved).
std::string ResolveWorkerBinary(const std::string& configured);

/// Builds the `shard-worker` argv for a subprocess launch. The worker
/// recomputes the stream and spec fingerprints itself from the files — a
/// cheap end-to-end check that both codecs round-trip.
std::vector<std::string> BuildWorkerArgv(const std::string& binary,
                                         const std::string& stream_path,
                                         const std::string& spec_path,
                                         const WorkerLaunch& launch);

/// fork/execs one worker, returning its pid. A failed exec surfaces as the
/// child exiting 127 — the caller's wait loop treats it as a dead worker.
pid_t SpawnShardWorker(const std::vector<std::string>& argv);

/// Maps one worker's final state and validates it in place: every frame
/// and CRC, the footer, and the header and query names against the
/// launch. False (with a warning) on any damage or mismatch — the caller
/// treats the worker as dead and relaunches it, so a stale or torn file can
/// delay a run but never corrupt a merge (a rejected state is unmapped).
/// On success the mapping's pages are released
/// (MappedShardState::ReleasePages) until the fold reads them, so
/// collecting W states does not hold W states in memory.
bool CollectWorkerState(const WorkerLaunch& launch,
                        const std::vector<QuerySpec>& wave_specs,
                        MappedShardState* state);

/// One fresh zero-state query per spec: the targets shard states fold into.
std::vector<EdgeQuery> MakeMergeTargets(
    const std::vector<QuerySpec>& wave_specs);

/// Folds one validated shard state into `merged` (one query per spec, spec
/// order) through EdgeStreamAlgorithm::MergeState, straight from the
/// state's bytes. Aborts if a blob is rejected: the state was validated
/// against the launch's spec fingerprint, so a rejection is a codec bug.
void FoldShardState(const std::vector<QuerySpec>& wave_specs,
                    const ShardStateView& state,
                    std::vector<EdgeQuery>& merged);

/// Folds collected states in rank order 0..W−1 into `merged`, unmapping
/// each state once it is folded.
void FoldCollectedStates(const std::vector<QuerySpec>& wave_specs,
                         std::vector<MappedShardState> states,
                         std::vector<EdgeQuery>& merged);

/// Owning-state adapter over FoldShardState: folds `states` in order into
/// `base`, or into fresh targets when `base` is empty.
std::vector<EdgeQuery> MergeShardStates(
    const std::vector<QuerySpec>& wave_specs,
    const std::vector<ShardState>& states, std::vector<EdgeQuery> base);

/// Fills the broker-shaped outcome/stats fields for one completed wave.
/// `merged` holds one query per admitted slot, in slot order.
void FinalizeShardWave(const std::vector<std::size_t>& admitted, int wave,
                       std::size_t stream_length,
                       std::vector<EdgeQuery>& merged,
                       std::vector<QueryOutcome>& outcomes,
                       EngineStats& stats);

/// CHECKs that `specs` is non-empty, unique-named, and every kind is a
/// shard-mergeable edge kind.
void CheckShardableSpecs(const std::vector<QuerySpec>& specs);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_COORDINATOR_H_
