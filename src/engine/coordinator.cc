#include "engine/coordinator.h"

#include <unistd.h>

#include <utility>

#include "stream/driver.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace cyclestream::engine {
namespace {

// The broker's audit cross-check, applied to a merged query (the merged
// state IS the single-process end-of-run state, so the same invariant must
// hold). Returns true iff an audit ran.
bool MaybeAuditMerged(const EdgeStreamAlgorithm& alg) {
  if (!SpaceAuditEnabled()) return false;
  const SpaceTracker* tracker = alg.space_tracker();
  const std::size_t walked = alg.AuditSpace();
  if (tracker == nullptr || walked == kNoSpaceAudit) return false;
  CHECK_EQ(walked, tracker->Current())
      << "space audit failed on merged shard state";
  return true;
}

}  // namespace

std::string ResolveWorkerBinary(const std::string& configured) {
  if (!configured.empty()) return configured;
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  CHECK_GT(n, 0) << "cannot resolve /proc/self/exe for the worker binary";
  return std::string(buf, static_cast<std::size_t>(n));
}

std::vector<std::string> BuildWorkerArgv(const std::string& binary,
                                         const std::string& stream_path,
                                         const std::string& spec_path,
                                         const WorkerLaunch& launch) {
  const ShardWorkerConfig& c = launch.config;
  std::vector<std::string> argv = {
      binary,
      "shard-worker",
      "--stream",
      stream_path,
      "--spec-file",
      spec_path,
      "--worker",
      std::to_string(c.worker_id),
      "--workers",
      std::to_string(c.num_workers),
      "--ranges",
      FormatShardRanges(c.ranges),
      "--state-out",
      launch.state_path,
      "--block-edges",
      std::to_string(c.block_edges),
  };
  if (c.epoch_edges > 0 && !c.checkpoint_path.empty()) {
    argv.push_back("--epoch-edges");
    argv.push_back(std::to_string(c.epoch_edges));
    argv.push_back("--checkpoint");
    argv.push_back(c.checkpoint_path);
  }
  if (c.resume) argv.push_back("--resume");
  if (c.die_after_edges != kNoDeath) {
    argv.push_back("--die-after-edges");
    argv.push_back(std::to_string(c.die_after_edges));
  }
  if (c.hang_after_edges != kNoDeath) {
    argv.push_back("--hang-after-edges");
    argv.push_back(std::to_string(c.hang_after_edges));
  }
  if (c.heartbeat_edges > 0 && !c.heartbeat_path.empty()) {
    argv.push_back("--heartbeat-edges");
    argv.push_back(std::to_string(c.heartbeat_edges));
    argv.push_back("--heartbeat");
    argv.push_back(c.heartbeat_path);
  }
  if (c.throttle_ms_per_block > 0) {
    argv.push_back("--throttle-ms");
    argv.push_back(std::to_string(c.throttle_ms_per_block));
  }
  return argv;
}

pid_t SpawnShardWorker(const std::vector<std::string>& argv) {
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& a : argv) raw.push_back(const_cast<char*>(a.c_str()));
  raw.push_back(nullptr);
  const pid_t pid = fork();
  CHECK_GE(pid, 0) << "fork failed for shard worker";
  if (pid == 0) {
    execv(raw[0], raw.data());
    _exit(127);  // exec failed; the coordinator treats it as a dead worker.
  }
  return pid;
}

bool CollectWorkerState(const WorkerLaunch& launch,
                        const std::vector<QuerySpec>& wave_specs,
                        MappedShardState* state) {
  const ShardWorkerConfig& c = launch.config;
  std::string error;
  if (!state->Open(launch.state_path, &error)) {
    LOG(WARNING) << "worker " << c.worker_id << ": state file rejected ("
                 << error << ")";
    return false;
  }
  auto reject = [&](const char* why) {
    LOG(WARNING) << "worker " << c.worker_id << ": " << why;
    *state = MappedShardState();
    return false;
  };
  const ShardStateView& v = state->view();
  const ShardHeader& h = v.header;
  if (h.worker_id != c.worker_id || h.num_workers != c.num_workers ||
      h.stream_fingerprint != c.stream_fingerprint ||
      h.stream_length != c.edges.size() ||
      h.spec_fingerprint != c.spec_fingerprint || h.ranges != c.ranges ||
      h.edges_done != TotalRangeEdges(c.ranges) ||
      v.query_states.size() != wave_specs.size()) {
    return reject("state header does not match its launch (stale file?)");
  }
  for (std::size_t i = 0; i < wave_specs.size(); ++i) {
    if (v.query_states[i].first != wave_specs[i].name) {
      return reject("query order mismatch in state file");
    }
  }
  state->ReleasePages();
  return true;
}

std::vector<EdgeQuery> MakeMergeTargets(
    const std::vector<QuerySpec>& wave_specs) {
  std::vector<EdgeQuery> targets;
  targets.reserve(wave_specs.size());
  for (const QuerySpec& spec : wave_specs) {
    targets.push_back(MakeEdgeQuery(spec));
  }
  return targets;
}

void FoldShardState(const std::vector<QuerySpec>& wave_specs,
                    const ShardStateView& state,
                    std::vector<EdgeQuery>& merged) {
  CHECK_EQ(state.query_states.size(), wave_specs.size());
  CHECK_EQ(merged.size(), wave_specs.size());
  for (std::size_t qi = 0; qi < wave_specs.size(); ++qi) {
    StateReader r(state.query_states[qi].second);
    CHECK(merged[qi].algorithm->MergeState(r))
        << "MergeState rejected a validated shard state for query '"
        << wave_specs[qi].name << "' (codec bug)";
  }
}

void FoldCollectedStates(const std::vector<QuerySpec>& wave_specs,
                         std::vector<MappedShardState> states,
                         std::vector<EdgeQuery>& merged) {
  for (MappedShardState& state : states) {
    FoldShardState(wave_specs, state.view(), merged);
    state = MappedShardState();  // Unmap: folded states are not kept.
  }
}

std::vector<EdgeQuery> MergeShardStates(
    const std::vector<QuerySpec>& wave_specs,
    const std::vector<ShardState>& states, std::vector<EdgeQuery> base) {
  std::vector<EdgeQuery> merged =
      base.empty() ? MakeMergeTargets(wave_specs) : std::move(base);
  for (const ShardState& state : states) {
    FoldShardState(wave_specs, ViewShardState(state), merged);
  }
  return merged;
}

void FinalizeShardWave(const std::vector<std::size_t>& admitted, int wave,
                       std::size_t stream_length,
                       std::vector<EdgeQuery>& merged,
                       std::vector<QueryOutcome>& outcomes,
                       EngineStats& stats) {
  // One logical pass (mergeable kinds are single-pass, CHECKed in the
  // worker), read once across the workers collectively — the same counters
  // the broker's wave loop would produce.
  ++stats.physical_passes;
  stats.source_items_read += stream_length;
  stats.items_delivered +=
      static_cast<std::uint64_t>(stream_length) * admitted.size();

  ExternalRunStats credit;
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    QueryOutcome& out = outcomes[admitted[i]];
    if (MaybeAuditMerged(*merged[i].algorithm)) ++credit.audits_passed;
    out.admission = AdmissionOutcome::kAdmitted;
    out.wave = wave;
    out.estimate = merged[i].result();
    out.passes = merged[i].algorithm->NumPasses();
    out.items_delivered = stream_length;
    if (const SpaceTracker* tracker = merged[i].algorithm->space_tracker()) {
      out.space_peak_components = tracker->PeakComponents();
    }
    ++credit.runs;
    credit.passes += static_cast<std::uint64_t>(out.passes);
    credit.edges_processed += stream_length;
  }
  AddExternalRunStats(credit);
}

void CheckShardableSpecs(const std::vector<QuerySpec>& specs) {
  CHECK(!specs.empty()) << "sharded batch needs at least one query";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CHECK(IsEdgeKind(specs[i].kind) && IsShardMergeableKind(specs[i].kind))
        << "query '" << specs[i].name << "' has kind "
        << QueryKindName(specs[i].kind)
        << ", which is not shard-mergeable (see IsShardMergeableKind)";
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      CHECK(specs[i].name != specs[j].name)
          << "duplicate query name '" << specs[i].name << "'";
    }
  }
}

}  // namespace cyclestream::engine
