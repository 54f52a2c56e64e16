#include "engine/supervisor.h"

#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "engine/spec.h"
#include "graph/types.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "util/check.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace cyclestream::engine {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ElapsedMs(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
          .count());
}

// ---------------------------------------------------------------------------
// Drain latch
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_supervisor_drain = 0;

extern "C" void SupervisorDrainSignalHandler(int /*signum*/) {
  // Both latches: in-process workers poll the worker latch, the
  // supervisor's loops poll this one. Plain sig_atomic_t stores — safe.
  g_supervisor_drain = 1;
  RequestWorkerDrain();
}

// ---------------------------------------------------------------------------
// Watchdog: per-wave liveness monitor for subprocess workers
// ---------------------------------------------------------------------------

// Reads each tracked worker's heartbeat file on a polling cadence and
// SIGKILLs any worker whose (edges_done, seq) has not advanced within the
// shard deadline. The kill turns a hang into an ordinary waitpid-visible
// death, which the reap loop then retries like any crash. Lives for one
// wave run; the destructor joins the thread.
class Watchdog {
 public:
  Watchdog(std::uint64_t deadline_ms, std::uint64_t poll_ms)
      : deadline_ms_(deadline_ms), poll_ms_(poll_ms == 0 ? 1 : poll_ms) {
    thread_ = std::thread([this] { Run(); });
  }

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void Track(pid_t pid, std::string hb_path) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry e;
    e.hb_path = std::move(hb_path);
    e.last_progress = Clock::now();
    entries_[pid] = std::move(e);
  }

  void Untrack(pid_t pid) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(pid);
  }

  std::uint64_t kills() const { return kills_.load(); }

 private:
  struct Entry {
    std::string hb_path;
    HeartbeatRecord last;
    bool have_beat = false;
    Clock::time_point last_progress;
  };

  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(poll_ms_),
                   [this] { return stop_; });
      if (stop_) break;
      const Clock::time_point now = Clock::now();
      std::vector<pid_t> expired;
      for (auto& [pid, e] : entries_) {
        HeartbeatRecord hb;
        if (ReadLastHeartbeat(e.hb_path, &hb)) {
          if (!e.have_beat || hb.edges_done != e.last.edges_done ||
              hb.seq != e.last.seq) {
            e.have_beat = true;
            e.last = hb;
            e.last_progress = now;
          }
        }
        if (ElapsedMs(e.last_progress, now) > deadline_ms_) {
          expired.push_back(pid);
        }
      }
      for (pid_t pid : expired) {
        LOG(WARNING) << "watchdog: worker pid " << pid
                     << " made no heartbeat progress in " << deadline_ms_
                     << " ms; killing it";
        kill(pid, SIGKILL);
        ++kills_;
        entries_.erase(pid);  // The reap loop collects the corpse.
      }
    }
  }

  const std::uint64_t deadline_ms_;
  const std::uint64_t poll_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::map<pid_t, Entry> entries_;
  std::atomic<std::uint64_t> kills_{0};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Wave runners
// ---------------------------------------------------------------------------

enum class WaveStatus { kCompleted, kPoisoned, kDrained };

void SleepMs(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Owns a worker's pidfd (close-on-exec), which polls readable once the
// worker exits. get() is -1 where the kernel has no pidfd_open, and after
// Close().
class Pidfd {
 public:
  Pidfd() = default;
  explicit Pidfd(pid_t pid)
      : fd_(static_cast<int>(syscall(SYS_pidfd_open, pid, 0))) {}
  Pidfd(Pidfd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Pidfd& operator=(Pidfd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ~Pidfd() { Close(); }

  int get() const { return fd_; }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

bool FileExists(const std::string& path) {
  return access(path.c_str(), F_OK) == 0;
}

// Collects already-valid state files (resume fast path). Returns how many
// workers were satisfied without launching anything.
std::size_t CollectExisting(const std::vector<WorkerLaunch>& launches,
                            const std::vector<QuerySpec>& wave_specs,
                            std::vector<MappedShardState>* states,
                            std::vector<char>* done,
                            SupervisorCounters* counters) {
  std::size_t collected = 0;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    if ((*done)[i]) continue;
    if (!FileExists(launches[i].state_path)) continue;
    if (CollectWorkerState(launches[i], wave_specs, &(*states)[i])) {
      (*done)[i] = 1;
      ++counters->states_collected;
      ++collected;
    }
  }
  return collected;
}

// Prepares launch `i` for its next attempt: past the first launch of a
// fresh run, faults are cleared and the worker resumes from its own epoch
// checkpoint. The heartbeat file is removed so the watchdog only ever sees
// beacons from the live incarnation.
void PrepareAttempt(WorkerLaunch& launch, bool is_retry, bool batch_resume) {
  ShardWorkerConfig& c = launch.config;
  if (is_retry) {
    c.die_after_edges = kNoDeath;
    c.hang_after_edges = kNoDeath;
  }
  c.resume = (is_retry || batch_resume) && !c.checkpoint_path.empty();
  if (!c.heartbeat_path.empty()) std::remove(c.heartbeat_path.c_str());
}

// Classifies one reaped worker's wait status into counters.
void CountExit(int status, SupervisorCounters* counters) {
  if (WIFSIGNALED(status)) {
    ++counters->deaths_by_signal;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == kKilledExitCode) {
    ++counters->exit_fault_sentinel;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0 &&
             WEXITSTATUS(status) != kDrainExitCode) {
    ++counters->exit_nonzero;
  }
}

// Reports a worker that used up its attempts, once no worker of the wave
// is running. A daemon poisons the wave and carries on; a shard run has no
// poisoned outcome to report (the coordinator never poisons), so it aborts.
void ReportExhausted(int wave, std::size_t worker,
                     const SupervisorOptions& options, bool resumable) {
  CHECK(resumable) << "shard worker " << worker
                   << " failed twice (initial + recovery) in wave " << wave
                   << "; giving up";
  LOG(ERROR) << "wave " << wave << " worker " << worker << " failed "
             << options.retry.max_attempts << " times; poisoning the wave";
}

// Subprocess wave runner: launch workers, reap with WNOHANG as soon as
// their pidfds say they exited (or each poll tick), retry under
// the backoff policy, enforce deadlines, honor drain. Fills `states` for
// every worker on kCompleted; partial on kPoisoned/kDrained.
WaveStatus RunWaveSubprocess(std::vector<WorkerLaunch>& launches,
                             const std::vector<QuerySpec>& wave_specs,
                             const SupervisorOptions& options,
                             const std::string& spec_path, int wave,
                             bool resumable,
                             std::vector<MappedShardState>* states,
                             SupervisorCounters* counters) {
  const bool batch_resume = options.resume;
  const std::size_t w = launches.size();
  states->clear();
  states->resize(w);
  std::vector<char> done(w, 0);
  if (batch_resume) {
    CollectExisting(launches, wave_specs, states, &done, counters);
  }

  const std::string binary =
      ResolveWorkerBinary(options.plan.worker_binary);
  const std::uint64_t poll_ms = options.deadline.poll_interval_ms == 0
                                    ? 1
                                    : options.deadline.poll_interval_ms;

  std::unique_ptr<Watchdog> watchdog;
  if (options.deadline.shard_deadline_ms > 0) {
    watchdog = std::make_unique<Watchdog>(options.deadline.shard_deadline_ms,
                                          poll_ms);
  }

  struct Track {
    pid_t pid = -1;
    Pidfd pidfd;  // Closed once the worker is reaped.
    bool running = false;
    int attempts = 0;
    Clock::time_point eligible = Clock::time_point::min();
  };
  std::vector<Track> track(w);

  auto all_done = [&] {
    for (std::size_t i = 0; i < w; ++i) {
      if (!done[i]) return false;
    }
    return true;
  };

  auto reap_one = [&](std::size_t i, int wait_flags) -> bool {
    int status = 0;
    pid_t got;
    do {
      got = waitpid(track[i].pid, &status, wait_flags);
    } while (got < 0 && errno == EINTR);
    if (got == 0) return false;  // Still running (WNOHANG).
    CHECK_EQ(got, track[i].pid) << "waitpid failed for supervised worker";
    track[i].running = false;
    track[i].pidfd.Close();
    if (watchdog) watchdog->Untrack(track[i].pid);
    CountExit(status, counters);
    const bool exited_zero = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const bool drain_ack =
        WIFEXITED(status) && WEXITSTATUS(status) == kDrainExitCode;
    if (exited_zero &&
        CollectWorkerState(launches[i], wave_specs, &(*states)[i])) {
      done[i] = 1;
      ++counters->states_collected;
    } else if (!drain_ack) {
      LOG(WARNING) << "wave " << wave << " worker " << i << ": "
                   << DescribeWaitStatus(status) << " (attempt "
                   << track[i].attempts << " of "
                   << options.retry.max_attempts << ")";
      if (track[i].attempts < options.retry.max_attempts) {
        const std::uint64_t backoff = ComputeBackoffMs(
            options.retry, wave, launches[i].config.worker_id,
            track[i].attempts + 1);
        counters->backoff_ms_total += backoff;
        track[i].eligible =
            Clock::now() + std::chrono::milliseconds(
                               options.sleep_in_backoff ? backoff : 0);
      }
    }
    return true;
  };

  // Blocks until a running worker exits or one poll tick passes, so the
  // deadline and drain checks keep their cadence; `only` < w narrows the
  // wait to one worker. Without a pidfd to wait on (none running, or no
  // kernel support) it is the plain sleep of one tick. EINTR counts as a
  // wake-up.
  auto wait_for_exit = [&](std::size_t only) {
    std::vector<pollfd> fds;
    for (std::size_t i = 0; i < w; ++i) {
      if (track[i].running && track[i].pidfd.get() >= 0 &&
          (only == w || only == i)) {
        fds.push_back(pollfd{track[i].pidfd.get(), POLLIN, 0});
      }
    }
    if (fds.empty()) {
      SleepMs(poll_ms);
      return;
    }
    poll(fds.data(), fds.size(),
         static_cast<int>(std::min<std::uint64_t>(poll_ms, INT_MAX)));
  };

  auto kill_running = [&](int signum) {
    for (std::size_t i = 0; i < w; ++i) {
      if (track[i].running) kill(track[i].pid, signum);
    }
  };

  Clock::time_point round_start = Clock::now();
  for (;;) {
    if (all_done()) {
      if (watchdog) counters->deadline_kills += watchdog->kills();
      return WaveStatus::kCompleted;
    }

    if (SupervisorDrainRequested()) {
      // Forward the drain: workers checkpoint at their next epoch boundary
      // and exit kDrainExitCode. The watchdog stays armed — a worker that
      // hangs instead of draining is still killed and reaped.
      kill_running(SIGTERM);
      for (std::size_t i = 0; i < w; ++i) {
        while (track[i].running) {
          if (!reap_one(i, WNOHANG)) wait_for_exit(i);
        }
      }
      if (watchdog) counters->deadline_kills += watchdog->kills();
      return WaveStatus::kDrained;
    }

    // Launch every worker whose backoff has expired.
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < w; ++i) {
      if (done[i] || track[i].running ||
          track[i].attempts >= options.retry.max_attempts ||
          now < track[i].eligible) {
        continue;
      }
      const bool is_retry = track[i].attempts > 0;
      PrepareAttempt(launches[i], is_retry, batch_resume);
      track[i].pid = SpawnShardWorker(BuildWorkerArgv(
          binary, options.plan.stream_path, spec_path, launches[i]));
      track[i].pidfd = Pidfd(track[i].pid);
      track[i].running = true;
      ++track[i].attempts;
      ++counters->workers_launched;
      if (is_retry) ++counters->retries;
      if (watchdog && !launches[i].config.heartbeat_path.empty()) {
        watchdog->Track(track[i].pid, launches[i].config.heartbeat_path);
      }
    }

    // Poison check: a worker with no attempts left and no valid state
    // condemns the wave. Remaining workers are killed — their output
    // cannot be used without the poisoned shard anyway.
    for (std::size_t i = 0; i < w; ++i) {
      if (!done[i] && !track[i].running &&
          track[i].attempts >= options.retry.max_attempts) {
        kill_running(SIGKILL);
        for (std::size_t j = 0; j < w; ++j) {
          if (track[j].running) reap_one(j, 0);
        }
        ReportExhausted(wave, i, options, resumable);
        if (watchdog) counters->deadline_kills += watchdog->kills();
        return WaveStatus::kPoisoned;
      }
    }

    // Reap.
    bool reaped = false;
    for (std::size_t i = 0; i < w; ++i) {
      if (track[i].running && reap_one(i, WNOHANG)) reaped = true;
    }

    // Wave deadline: one round outliving this kills every runner (the
    // reap pass above then schedules their retries). Timer restarts so
    // each retry round gets the full allowance.
    if (options.deadline.wave_deadline_ms > 0 &&
        ElapsedMs(round_start, Clock::now()) >
            options.deadline.wave_deadline_ms) {
      LOG(WARNING) << "wave " << wave << " exceeded its deadline of "
                   << options.deadline.wave_deadline_ms
                   << " ms; killing still-running workers";
      for (std::size_t i = 0; i < w; ++i) {
        if (track[i].running) {
          kill(track[i].pid, SIGKILL);
          ++counters->deadline_kills;
        }
      }
      round_start = Clock::now();
    }

    if (!reaped) wait_for_exit(w);
  }
}

// In-process wave runner: the same retry ladder, sequential (no deadlines
// — a hung in-process worker would wedge the supervisor itself, which is
// why DeadlinePolicy is subprocess-only).
WaveStatus RunWaveInProcess(std::vector<WorkerLaunch>& launches,
                            const std::vector<QuerySpec>& wave_specs,
                            const SupervisorOptions& options, int wave,
                            bool resumable,
                            std::vector<MappedShardState>* states,
                            SupervisorCounters* counters) {
  const bool batch_resume = options.resume;
  const std::size_t w = launches.size();
  states->clear();
  states->resize(w);
  std::vector<char> done(w, 0);
  if (batch_resume) {
    CollectExisting(launches, wave_specs, states, &done, counters);
  }

  for (std::size_t i = 0; i < w; ++i) {
    if (done[i]) continue;
    for (int attempt = 1; attempt <= options.retry.max_attempts; ++attempt) {
      if (SupervisorDrainRequested()) return WaveStatus::kDrained;
      if (attempt > 1) {
        const std::uint64_t backoff = ComputeBackoffMs(
            options.retry, wave, launches[i].config.worker_id, attempt);
        counters->backoff_ms_total += backoff;
        if (options.sleep_in_backoff) SleepMs(backoff);
        ++counters->retries;
      }
      PrepareAttempt(launches[i], /*is_retry=*/attempt > 1, batch_resume);
      ++counters->workers_launched;
      std::string error;
      const ShardWorkerOutcome outcome =
          RunShardWorker(launches[i].config, launches[i].state_path, &error);
      if (outcome.drained) return WaveStatus::kDrained;
      if (!outcome.completed && !error.empty()) {
        LOG(WARNING) << "wave " << wave << " worker " << i
                     << " failed in-process: " << error;
      }
      if (outcome.completed &&
          CollectWorkerState(launches[i], wave_specs, &(*states)[i])) {
        done[i] = 1;
        ++counters->states_collected;
        break;
      }
    }
    if (!done[i]) {
      ReportExhausted(wave, i, options, resumable);
      return WaveStatus::kPoisoned;
    }
  }
  return WaveStatus::kCompleted;
}

// ---------------------------------------------------------------------------
// Daemon manifest codec
// ---------------------------------------------------------------------------

std::string EncodeDaemonManifest(const DaemonManifest& m) {
  StateWriter h;
  h.U64(m.stream_fingerprint);
  h.U64(m.stream_length);
  h.U64(m.batch_spec_fingerprint);
  h.U32(m.num_workers);
  h.U64(m.epoch_edges);
  h.U64(m.block_edges);
  h.U64(m.aggregate_words);
  h.U64(m.per_query_words);
  h.U32(m.waves_started);
  h.U8(m.drained);
  h.U8(m.completed);
  h.Size(m.pending_slots.size());
  for (std::uint64_t slot : m.pending_slots) h.U64(slot);
  std::string out;
  AppendFrame(&out, FrameType::kHeader, h.str());
  StateWriter f;
  f.U32(m.waves_started);
  AppendFrame(&out, FrameType::kFooter, f.str());
  return out;
}

}  // namespace

std::string DaemonManifestPath(const std::string& shard_dir) {
  return shard_dir + "/daemon.manifest";
}

bool SaveDaemonManifest(const std::string& path,
                        const DaemonManifest& manifest, std::string* error) {
  // Durable atomic write — this file is what a post-crash resume trusts.
  return io::WriteFileAtomic(path, EncodeDaemonManifest(manifest), error);
}

bool LoadDaemonManifest(const std::string& path, DaemonManifest* manifest,
                        std::string* error) {
  auto reject = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::string encoded;
  if (!io::ReadFileToString(path, &encoded, error)) return false;
  std::size_t pos = 0;
  FrameType type;
  std::string_view payload;
  if (!ReadFrame(encoded, &pos, &type, &payload, error)) return false;
  if (type != FrameType::kHeader) {
    return reject("daemon manifest must start with a header frame");
  }
  DaemonManifest out;
  StateReader r(payload);
  out.stream_fingerprint = r.U64();
  out.stream_length = r.U64();
  out.batch_spec_fingerprint = r.U64();
  out.num_workers = r.U32();
  out.epoch_edges = r.U64();
  out.block_edges = r.U64();
  out.aggregate_words = r.U64();
  out.per_query_words = r.U64();
  out.waves_started = r.U32();
  out.drained = r.U8();
  out.completed = r.U8();
  const std::size_t pending = r.Size();
  if (!r.ok() || pending > r.Remaining() / 8 + 1) {
    return reject("daemon manifest malformed (pending count)");
  }
  for (std::size_t i = 0; i < pending; ++i) {
    out.pending_slots.push_back(r.U64());
  }
  if (!r.ok() || !r.AtEnd()) {
    return reject("daemon manifest malformed (trailing header bytes)");
  }
  if (!ReadFrame(encoded, &pos, &type, &payload, error)) return false;
  if (type != FrameType::kFooter) return reject("expected a footer frame");
  StateReader f(payload);
  if (f.U32() != out.waves_started || !f.AtEnd()) {
    return reject("daemon manifest footer disagrees with the header");
  }
  if (pos != encoded.size()) {
    return reject("trailing bytes after the daemon manifest footer");
  }
  *manifest = std::move(out);
  return true;
}

// ---------------------------------------------------------------------------
// Public drain control
// ---------------------------------------------------------------------------

void RequestSupervisorDrain() { g_supervisor_drain = 1; }
bool SupervisorDrainRequested() { return g_supervisor_drain != 0; }
void ClearSupervisorDrainRequest() { g_supervisor_drain = 0; }

void InstallDrainHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = SupervisorDrainSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // No SA_RESTART: poll sleeps should wake immediately.
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

std::uint64_t ComputeBackoffMs(const RetryPolicy& policy, int wave,
                               std::uint32_t worker, int attempt) {
  CHECK_GE(attempt, 2) << "backoff precedes a retry, not the first launch";
  const int shift = attempt - 2;
  std::uint64_t base = policy.base_backoff_ms;
  // Saturating base << shift, clamped to the cap.
  if (shift >= 63 || (base != 0 && base > (policy.backoff_cap_ms >> shift))) {
    base = policy.backoff_cap_ms;
  } else {
    base = std::min(policy.backoff_cap_ms, base << shift);
  }
  const std::uint64_t span = policy.base_backoff_ms / 2 + 1;
  const std::uint64_t jitter =
      Mix64(policy.jitter_seed ^ Mix64(static_cast<std::uint64_t>(wave) ^
                                       (std::uint64_t{worker} << 20) ^
                                       (std::uint64_t(attempt) << 52))) %
      span;
  return base + jitter;
}

// ---------------------------------------------------------------------------
// The wave loop
// ---------------------------------------------------------------------------

namespace {

// The one wave loop behind `serve --daemon` (RunSupervisedBatch) and
// `shard` (RunShardedBatch). `resumable` is the only difference between
// them: a daemon persists its admission frontier in the daemon manifest,
// keeps every wave's final states for a later --resume (and a folded
// wave's checkpoints until the next manifest write), and poisons a wave
// whose worker runs out of attempts; a shard run writes no
// manifest, deletes each wave's states and checkpoints once they are
// folded (nothing reads them again), and aborts instead of poisoning.
bool RunWaves(const std::vector<QuerySpec>& specs,
              std::span<const Edge> edges, const SupervisorOptions& options,
              bool resumable, SupervisedBatchResult* result,
              std::string* error) {
  auto reject = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  CheckShardableSpecs(specs);
  IgnoreSigpipe();
  const ShardPlanOptions& plan = options.plan;
  CHECK_GT(plan.num_workers, 0);
  CHECK(!plan.shard_dir.empty())
      << "ShardPlanOptions::shard_dir is required (state files + "
         "checkpoints live there)";
  CHECK_GE(options.retry.max_attempts, 1);
  CHECK(resumable || !options.resume);
  const bool subprocess = plan.launch == ShardLaunch::kSubprocess;
  if (subprocess) {
    CHECK(!plan.stream_path.empty())
        << "subprocess workers need --stream (a .bin path)";
  } else if (options.deadline.shard_deadline_ms > 0 ||
             options.deadline.wave_deadline_ms > 0) {
    LOG(WARNING) << "deadlines are subprocess-only; ignoring them for the "
                    "in-process launch";
  }

  std::uint64_t heartbeat_edges = options.heartbeat_edges;
  if (heartbeat_edges == 0 && options.deadline.shard_deadline_ms > 0) {
    heartbeat_edges = plan.block_edges;  // Beacon at least once per block.
  }

  SupervisedBatchResult out;
  out.resumed = options.resume;
  out.outcomes.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out.outcomes[i].spec = specs[i];
  }
  EngineStats& stats = out.stats;

  const std::uint64_t stream_fp = FingerprintEdgeStream(edges);
  const std::string manifest_path = DaemonManifestPath(plan.shard_dir);

  DaemonManifest base;
  base.stream_fingerprint = stream_fp;
  base.stream_length = edges.size();
  base.batch_spec_fingerprint = FingerprintSpecs(specs);
  base.num_workers = static_cast<std::uint32_t>(plan.num_workers);
  base.epoch_edges = plan.epoch_edges;
  base.block_edges = plan.block_edges;
  base.aggregate_words = plan.budget.aggregate_words;
  base.per_query_words = plan.budget.per_query_words;
  // Checkpoints of folded waves. Once a manifest written after the fold
  // exists, a resume re-collects such a wave from its final states and
  // never reads these, so each write deletes them.
  std::vector<std::string> folded_checkpoints;
  auto save_manifest = [&](std::uint32_t waves_started,
                           const std::vector<std::size_t>& pending,
                           bool drained, bool completed) {
    if (!resumable) return;
    DaemonManifest m = base;
    m.waves_started = waves_started;
    m.pending_slots.assign(pending.begin(), pending.end());
    m.drained = drained ? 1 : 0;
    m.completed = completed ? 1 : 0;
    std::string werr;
    CHECK(SaveDaemonManifest(manifest_path, m, &werr)) << werr;
    for (const std::string& path : folded_checkpoints) {
      std::remove(path.c_str());
    }
    folded_checkpoints.clear();
  };

  DaemonManifest prev;
  if (options.resume) {
    if (!LoadDaemonManifest(manifest_path, &prev, error)) return false;
    if (prev.stream_fingerprint != stream_fp ||
        prev.stream_length != edges.size()) {
      return reject("daemon manifest is for a different stream");
    }
    if (prev.batch_spec_fingerprint != base.batch_spec_fingerprint) {
      return reject("daemon manifest is for a different query batch "
                    "(spec fingerprint mismatch)");
    }
    if (prev.num_workers != base.num_workers ||
        prev.epoch_edges != base.epoch_edges ||
        prev.block_edges != base.block_edges ||
        prev.aggregate_words != base.aggregate_words ||
        prev.per_query_words != base.per_query_words) {
      return reject("daemon manifest execution plan mismatch (resume must "
                    "reuse the original workers/epoch/block/budget)");
    }
  }

  std::string mismatch;
  RunAdmissionWaves(
      plan.budget, specs, stats,
      [&](int wave, const std::vector<std::size_t>& admitted,
          const std::vector<std::size_t>& queued) {
        // Resume cross-check at the interruption frontier: the replayed
        // admission queue must match what the drained daemon persisted.
        if (options.resume && prev.waves_started > 0 &&
            wave == static_cast<int>(prev.waves_started) - 1 &&
            std::vector<std::uint64_t>(queued.begin(), queued.end()) !=
                prev.pending_slots) {
          mismatch = "daemon manifest admission queue mismatch at wave " +
                     std::to_string(wave) +
                     " (different batch or budget policy?)";
          return false;
        }

        std::vector<QuerySpec> wave_specs;
        wave_specs.reserve(admitted.size());
        for (std::size_t slot : admitted) wave_specs.push_back(specs[slot]);
        const std::uint64_t spec_fp = FingerprintSpecs(wave_specs);

        const std::vector<ShardRange> partition =
            PartitionStream(edges.size(), plan.num_workers);
        const std::string prefix =
            plan.shard_dir + "/w" + std::to_string(wave);

        std::string spec_path;
        if (subprocess) {
          spec_path = prefix + ".specs";
          std::string werr;
          CHECK(WriteSpecFile(spec_path, wave_specs, &werr)) << werr;
        }

        std::vector<WorkerLaunch> launches(
            static_cast<std::size_t>(plan.num_workers));
        for (std::size_t i = 0; i < launches.size(); ++i) {
          ShardWorkerConfig& c = launches[i].config;
          const std::string stem = prefix + "-s" + std::to_string(i);
          c.specs = wave_specs;
          c.edges = edges;
          c.ranges = {partition[i]};
          c.worker_id = static_cast<std::uint32_t>(i);
          c.num_workers = static_cast<std::uint32_t>(plan.num_workers);
          c.stream_fingerprint = stream_fp;
          c.spec_fingerprint = spec_fp;
          c.block_edges = plan.block_edges;
          c.epoch_edges = plan.epoch_edges;
          c.throttle_ms_per_block = options.throttle_ms_per_block;
          if (plan.epoch_edges > 0) c.checkpoint_path = stem + ".ckpt";
          if (subprocess && heartbeat_edges > 0) {
            c.heartbeat_edges = heartbeat_edges;
            c.heartbeat_path = stem + ".hb";
          }
          if (wave == 0 && !options.resume) {
            if (plan.kill_worker >= 0 &&
                static_cast<std::size_t>(plan.kill_worker) == i) {
              c.die_after_edges = plan.kill_after_edges;
            }
            if (subprocess && options.hang_worker >= 0 &&
                static_cast<std::size_t>(options.hang_worker) == i) {
              c.hang_after_edges = options.hang_after_edges;
            }
          }
          launches[i].state_path = stem + ".state";
        }

        // Persist the frontier BEFORE launching: a crash at any point after
        // this line resumes into exactly this wave.
        const auto waves_started = static_cast<std::uint32_t>(wave) + 1;
        save_manifest(waves_started, queued, false, false);

        // A drain that lands between waves stops with nothing in flight.
        const bool drained = SupervisorDrainRequested();
        // Subprocess workers leave this process idle in its reap loop, so
        // it builds the merge targets meanwhile. The in-process launch
        // builds them after its workers return, so they never add a replica
        // to its peak. A drained or poisoned wave drops them.
        std::future<std::vector<EdgeQuery>> targets;
        if (subprocess && !drained) {
          targets = std::async(std::launch::async, [&wave_specs] {
            return MakeMergeTargets(wave_specs);
          });
        }
        std::vector<MappedShardState> states;
        const WaveStatus status =
            drained ? WaveStatus::kDrained
            : subprocess
                ? RunWaveSubprocess(launches, wave_specs, options, spec_path,
                                    wave, resumable, &states, &out.counters)
                : RunWaveInProcess(launches, wave_specs, options, wave,
                                   resumable, &states, &out.counters);

        if (status == WaveStatus::kDrained) {
          save_manifest(waves_started, queued, true, false);
          out.drained = true;
          ++out.counters.drains;
          return false;
        }

        if (status == WaveStatus::kPoisoned) {
          ++out.counters.waves_poisoned;
          out.poisoned_waves.push_back(wave);
          for (std::size_t slot : admitted) {
            out.outcomes[slot].admission = AdmissionOutcome::kAdmitted;
            out.outcomes[slot].wave = wave;
            out.outcomes[slot].poisoned = true;
          }
          return true;  // The daemon outlives the wave.
        }

        std::vector<EdgeQuery> merged =
            subprocess ? targets.get() : MakeMergeTargets(wave_specs);
        FoldCollectedStates(wave_specs, std::move(states), merged);
        FinalizeShardWave(admitted, wave, edges.size(), merged, out.outcomes,
                          stats);
        ++out.counters.waves_completed;
        for (const WorkerLaunch& launch : launches) {
          const std::string& ckpt = launch.config.checkpoint_path;
          if (resumable) {
            if (!ckpt.empty()) folded_checkpoints.push_back(ckpt);
            continue;
          }
          std::remove(launch.state_path.c_str());
          if (!ckpt.empty()) std::remove(ckpt.c_str());
        }
        return true;
      });
  if (!mismatch.empty()) return reject(mismatch);

  if (!out.drained) {
    save_manifest(static_cast<std::uint32_t>(stats.waves), {}, false, true);
  }
  *result = std::move(out);
  return true;
}

}  // namespace

bool RunSupervisedBatch(const std::vector<QuerySpec>& specs,
                        std::span<const Edge> edges,
                        const SupervisorOptions& options,
                        SupervisedBatchResult* result, std::string* error) {
  return RunWaves(specs, edges, options, /*resumable=*/true, result, error);
}

ShardBatchResult RunShardedBatch(const std::vector<QuerySpec>& specs,
                                 std::span<const Edge> edges,
                                 const ShardPlanOptions& options) {
  SupervisorOptions supervised;
  supervised.plan = options;
  // One immediate relaunch, resuming from the worker's own checkpoint; no
  // deadlines, heartbeats or throttle.
  supervised.retry = {
      .max_attempts = 2, .base_backoff_ms = 0, .backoff_cap_ms = 0};
  SupervisedBatchResult run;
  CHECK(RunWaves(specs, edges, supervised, /*resumable=*/false, &run,
                 nullptr));
  CHECK(!run.drained) << "a shard run cannot drain; use serve --daemon";
  return {std::move(run.outcomes), run.stats, run.counters.workers_launched,
          run.counters.retries};
}

void ExportSupervisorCounters(const SupervisorCounters& c,
                              RunManifest& manifest) {
  MetricsRegistry& m = manifest.metrics();
  auto put = [&m](const char* name, std::uint64_t v) {
    m.SetExecution(name, static_cast<std::int64_t>(v));
  };
  put("supervisor.workers_launched", c.workers_launched);
  put("supervisor.retries", c.retries);
  put("supervisor.backoff_ms_total", c.backoff_ms_total);
  put("supervisor.deadline_kills", c.deadline_kills);
  put("supervisor.waves_poisoned", c.waves_poisoned);
  put("supervisor.drains", c.drains);
  put("supervisor.exit_fault_sentinel", c.exit_fault_sentinel);
  put("supervisor.exit_nonzero", c.exit_nonzero);
  put("supervisor.deaths_by_signal", c.deaths_by_signal);
  put("supervisor.states_collected", c.states_collected);
  put("supervisor.waves_completed", c.waves_completed);
}

}  // namespace cyclestream::engine
