#include "engine/shard.h"

#include <signal.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <thread>

#include "stream/driver.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace cyclestream::engine {
namespace {

constexpr char kFrameMagic[4] = {'C', 'Y', 'S', 'F'};
constexpr std::size_t kFrameHeaderSize = 4 + 4 + 8 + 4;

void PutLE(std::string* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t GetLE(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

bool KnownFrameType(std::uint32_t raw) {
  return raw == static_cast<std::uint32_t>(FrameType::kHeader) ||
         raw == static_cast<std::uint32_t>(FrameType::kQueryState) ||
         raw == static_cast<std::uint32_t>(FrameType::kFooter) ||
         raw == static_cast<std::uint32_t>(FrameType::kHeartbeat);
}

// Process-wide drain flag. sig_atomic_t + volatile: written from signal
// handlers (RequestWorkerDrain is async-signal-safe), read in the worker
// loop at block/epoch granularity.
volatile std::sig_atomic_t g_drain_requested = 0;

void SleepMs(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

void RequestWorkerDrain() { g_drain_requested = 1; }
bool WorkerDrainRequested() { return g_drain_requested != 0; }
void ClearWorkerDrainRequest() { g_drain_requested = 0; }

void IgnoreSigpipe() {
  // A worker writing its state file while the coordinator is gone — or the
  // coordinator logging to a closed pipe — must surface as an error code,
  // not a silent SIGPIPE death that the supervisor then misclassifies.
  static const bool installed = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
}

std::string DescribeWaitStatus(int status) {
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    std::string out = "exited " + std::to_string(code);
    if (code == kKilledExitCode) out += " (fault-injection kill sentinel)";
    if (code == kDrainExitCode) out += " (drain acknowledged)";
    if (code == 127) out += " (exec failed)";
    return out;
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    std::string out = "killed by signal " + std::to_string(sig);
    if (name != nullptr) out += std::string(" (") + name + ")";
    return out;
  }
  return "unrecognized wait status " + std::to_string(status);
}

namespace {

// Emits one frame whose payload is the concatenation of `pieces` through
// `out(std::string_view) -> bool`, stopping at the first false. The CRC
// runs over the pieces in order, so the bytes equal a frame built over the
// concatenated payload — without ever concatenating it.
template <typename Out>
bool EmitFrame(FrameType type, std::initializer_list<std::string_view> pieces,
               Out&& out) {
  std::uint64_t size = 0;
  Crc32Accumulator crc;
  for (std::string_view piece : pieces) {
    size += piece.size();
    crc.Update(piece.data(), piece.size());
  }
  std::string header;
  header.reserve(kFrameHeaderSize);
  header.append(kFrameMagic, sizeof(kFrameMagic));
  PutLE(&header, static_cast<std::uint32_t>(type), 4);
  PutLE(&header, size, 8);
  PutLE(&header, crc.Final(), 4);
  if (!out(std::string_view(header))) return false;
  for (std::string_view piece : pieces) {
    if (!piece.empty() && !out(piece)) return false;
  }
  return true;
}

std::string HeaderPayload(const ShardHeader& header, std::size_t num_queries) {
  StateWriter h;
  h.U32(header.worker_id);
  h.U32(header.num_workers);
  h.U64(header.stream_fingerprint);
  h.U64(header.stream_length);
  h.U64(header.spec_fingerprint);
  h.U64(header.edges_done);
  h.U64(header.epoch);
  h.Size(header.ranges.size());
  for (const ShardRange& r : header.ranges) {
    h.U64(r.begin);
    h.U64(r.end);
  }
  h.Size(num_queries);
  return h.Take();
}

// The whole state file: header frame, one query-state frame per
// `query(i) -> pair<name, blob>` (payload Str(name) Str(blob), emitted as
// four pieces so the blob is never copied into a payload), footer frame.
// `query` is called once per query, in order, and its views need only
// live until the next call.
template <typename Query, typename Out>
bool EmitShardState(const ShardHeader& header, std::size_t num_queries,
                    Query&& query, Out&& out) {
  if (!EmitFrame(FrameType::kHeader, {HeaderPayload(header, num_queries)},
                 out)) {
    return false;
  }
  for (std::size_t i = 0; i < num_queries; ++i) {
    const auto [name, blob] = query(i);
    std::string name_size;
    std::string blob_size;
    PutLE(&name_size, name.size(), 8);
    PutLE(&blob_size, blob.size(), 8);
    if (!EmitFrame(FrameType::kQueryState, {name_size, name, blob_size, blob},
                   out)) {
      return false;
    }
  }
  std::string footer;
  PutLE(&footer, num_queries, 8);
  return EmitFrame(FrameType::kFooter, {footer}, out);
}

// Streams a state file through an io::AtomicFileWriter: nothing larger
// than one query's blob is ever held, and `durable` picks between the
// checkpoint contract (fsync file + directory) and a plain atomic rename.
template <typename Query>
bool WriteShardStateFile(const std::string& path, const ShardHeader& header,
                         std::size_t num_queries, Query&& query, bool durable,
                         std::string* error) {
  io::AtomicFileWriter writer;
  return writer.Open(path, error) &&
         EmitShardState(header, num_queries, query,
                        [&](std::string_view bytes) {
                          return writer.Write(bytes, error);
                        }) &&
         writer.Commit(durable, error);
}

// EmitShardState's `query` for an owning state.
auto OwnedQueries(const ShardState& state) {
  return [&state](std::size_t i) {
    return std::pair<std::string_view, std::string_view>(
        state.query_states[i].first, state.query_states[i].second);
  };
}

}  // namespace

void AppendFrame(std::string* out, FrameType type, std::string_view payload) {
  EmitFrame(type, {payload}, [out](std::string_view bytes) {
    out->append(bytes);
    return true;
  });
}

bool ReadFrame(std::string_view data, std::size_t* pos, FrameType* type,
               std::string_view* payload, std::string* error) {
  auto reject = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (data.size() - *pos < kFrameHeaderSize) {
    return reject("frame truncated: " + std::to_string(data.size() - *pos) +
                  " bytes left, header needs " +
                  std::to_string(kFrameHeaderSize));
  }
  const char* p = data.data() + *pos;
  if (std::memcmp(p, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return reject("bad frame magic");
  }
  const auto raw_type = static_cast<std::uint32_t>(GetLE(p + 4, 4));
  if (!KnownFrameType(raw_type)) {
    return reject("unknown frame type " + std::to_string(raw_type));
  }
  const std::uint64_t size = GetLE(p + 8, 8);
  const auto crc = static_cast<std::uint32_t>(GetLE(p + 16, 4));
  if (size > data.size() - *pos - kFrameHeaderSize) {
    return reject("frame payload overruns the file: declares " +
                  std::to_string(size) + " bytes, " +
                  std::to_string(data.size() - *pos - kFrameHeaderSize) +
                  " available");
  }
  const std::string_view body =
      data.substr(*pos + kFrameHeaderSize, static_cast<std::size_t>(size));
  if (Crc32(body) != crc) {
    return reject("frame CRC mismatch (corrupt payload)");
  }
  *type = static_cast<FrameType>(raw_type);
  *payload = body;
  *pos += kFrameHeaderSize + static_cast<std::size_t>(size);
  return true;
}

std::vector<ShardRange> PartitionStream(std::uint64_t stream_length,
                                        int num_workers) {
  CHECK_GT(num_workers, 0);
  const auto w = static_cast<std::uint64_t>(num_workers);
  const std::uint64_t base = stream_length / w;
  const std::uint64_t extra = stream_length % w;
  std::vector<ShardRange> ranges(static_cast<std::size_t>(w));
  std::uint64_t begin = 0;
  for (std::uint64_t i = 0; i < w; ++i) {
    const std::uint64_t len = base + (i < extra ? 1 : 0);
    ranges[static_cast<std::size_t>(i)] = {begin, begin + len};
    begin += len;
  }
  CHECK_EQ(begin, stream_length);
  return ranges;
}

std::uint64_t TotalRangeEdges(const std::vector<ShardRange>& ranges) {
  std::uint64_t total = 0;
  for (const ShardRange& r : ranges) {
    CHECK_LE(r.begin, r.end);
    total += r.size();
  }
  return total;
}

std::string EncodeShardState(const ShardState& state) {
  std::string out;
  EmitShardState(state.header, state.query_states.size(), OwnedQueries(state),
                 [&out](std::string_view bytes) {
                   out.append(bytes);
                   return true;
                 });
  return out;
}

bool ParseShardState(std::string_view encoded, ShardStateView* view,
                     std::string* error) {
  auto reject = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::size_t pos = 0;
  FrameType type;
  std::string_view payload;
  if (!ReadFrame(encoded, &pos, &type, &payload, error)) return false;
  if (type != FrameType::kHeader) {
    return reject("shard state must start with a header frame");
  }
  ShardStateView out;
  StateReader r(payload);
  out.header.worker_id = r.U32();
  out.header.num_workers = r.U32();
  out.header.stream_fingerprint = r.U64();
  out.header.stream_length = r.U64();
  out.header.spec_fingerprint = r.U64();
  out.header.edges_done = r.U64();
  out.header.epoch = r.U64();
  const std::size_t num_ranges = r.Size();
  if (!r.ok() || num_ranges > r.Remaining() / 16 + 1) {
    return reject("shard state header malformed (range count)");
  }
  out.header.ranges.reserve(num_ranges);
  for (std::size_t i = 0; i < num_ranges; ++i) {
    ShardRange range;
    range.begin = r.U64();
    range.end = r.U64();
    if (range.begin > range.end) {
      return reject("shard state header malformed (inverted range)");
    }
    out.header.ranges.push_back(range);
  }
  const std::size_t num_queries = r.Size();
  if (!r.AtEnd()) {
    return reject("shard state header malformed (trailing bytes)");
  }
  // Every query-state frame is at least a frame header plus two length
  // prefixes: a count the rest of the file cannot hold is rejected before
  // it sizes an allocation.
  if (num_queries > (encoded.size() - pos) / (kFrameHeaderSize + 16)) {
    return reject("shard state header malformed (query count " +
                  std::to_string(num_queries) + " exceeds the file)");
  }
  out.query_states.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    if (!ReadFrame(encoded, &pos, &type, &payload, error)) return false;
    if (type != FrameType::kQueryState) {
      return reject("expected a query-state frame");
    }
    StateReader q(payload);
    const std::string_view name = q.StrView();
    const std::string_view blob = q.StrView();
    if (!q.AtEnd()) {
      return reject("query-state frame malformed (name/blob lengths)");
    }
    out.query_states.emplace_back(name, blob);
  }
  if (!ReadFrame(encoded, &pos, &type, &payload, error)) return false;
  if (type != FrameType::kFooter) {
    return reject("expected a footer frame");
  }
  StateReader f(payload);
  const std::size_t count = f.Size();
  if (!f.AtEnd() || count != out.query_states.size()) {
    return reject("footer count disagrees with the query-state frames "
                  "(truncated or spliced file)");
  }
  if (pos != encoded.size()) {
    return reject("trailing bytes after the footer frame");
  }
  *view = std::move(out);
  return true;
}

ShardStateView ViewShardState(const ShardState& state) {
  ShardStateView view;
  view.header = state.header;
  view.query_states.reserve(state.query_states.size());
  for (const auto& [name, blob] : state.query_states) {
    view.query_states.emplace_back(name, blob);
  }
  return view;
}

bool DecodeShardState(std::string_view encoded, ShardState* state,
                      std::string* error) {
  ShardStateView view;
  if (!ParseShardState(encoded, &view, error)) return false;
  ShardState out;
  out.header = std::move(view.header);
  out.query_states.reserve(view.query_states.size());
  for (const auto& [name, blob] : view.query_states) {
    out.query_states.emplace_back(std::string(name), std::string(blob));
  }
  *state = std::move(out);
  return true;
}

bool SaveShardState(const std::string& path, const ShardState& state,
                    std::string* error) {
  // Durable atomic write (util/io.h): EINTR-safe, file fsynced before the
  // rename, parent directory fsynced after — a crash right after the
  // rename cannot lose a checkpoint the supervisor is counting on.
  return WriteShardStateFile(path, state.header, state.query_states.size(),
                             OwnedQueries(state), /*durable=*/true, error);
}

bool LoadShardState(const std::string& path, ShardState* state,
                    std::string* error) {
  io::MappedFile file;
  return file.Open(path, error) &&
         DecodeShardState(file.bytes(), state, error);
}

bool MappedShardState::Open(const std::string& path, std::string* error) {
  view_ = ShardStateView{};
  if (!file_.Open(path, error)) return false;
  if (!ParseShardState(file_.bytes(), &view_, error)) {
    file_ = io::MappedFile();
    return false;
  }
  return true;
}

bool AppendHeartbeat(const std::string& path, const HeartbeatRecord& record) {
  StateWriter w;
  w.U32(record.worker_id);
  w.U64(record.edges_done);
  w.U64(record.seq);
  std::string frame;
  AppendFrame(&frame, FrameType::kHeartbeat, w.str());
  std::string error;
  if (!io::AppendToFile(path, frame, &error)) {
    LOG(WARNING) << "heartbeat append failed: " << error;
    return false;
  }
  return true;
}

bool ReadLastHeartbeat(const std::string& path, HeartbeatRecord* record) {
  std::string data;
  if (!io::ReadFileToString(path, &data, nullptr)) return false;
  bool found = false;
  HeartbeatRecord last;
  std::size_t pos = 0;
  FrameType type;
  std::string_view payload;
  // Walk frames until the end or the first damage; a torn tail (killed
  // mid-append) invalidates only the beacons after the damage.
  while (pos < data.size() && ReadFrame(data, &pos, &type, &payload, nullptr)) {
    if (type != FrameType::kHeartbeat) continue;
    StateReader r(payload);
    HeartbeatRecord hb;
    hb.worker_id = r.U32();
    hb.edges_done = r.U64();
    hb.seq = r.U64();
    if (!r.AtEnd()) continue;
    last = hb;
    found = true;
  }
  if (found && record != nullptr) *record = last;
  return found;
}

namespace {

// Writes the live query states as one state file, serializing each query
// into a single reused buffer right before its frame is streamed out — the
// only copy of the state bytes the write makes.
bool WriteWorkerState(const std::string& path, const ShardHeader& header,
                      const std::vector<QuerySpec>& specs,
                      const std::vector<EdgeQuery>& queries, bool durable,
                      std::string* error) {
  StateWriter buffer;
  auto query = [&](std::size_t i) {
    buffer.Clear();
    CHECK(queries[i].algorithm->SaveState(buffer))
        << "mergeable query '" << specs[i].name
        << "' must support SaveState";
    return std::pair<std::string_view, std::string_view>(specs[i].name,
                                                         buffer.str());
  };
  return WriteShardStateFile(path, header, queries.size(), query, durable,
                             error);
}

// Validates that a checkpoint belongs to exactly this worker configuration
// and restores every query's state from the mapped file. Returns false on
// any mismatch, with every query back at its fresh zero state.
bool TryRestoreCheckpoint(const ShardWorkerConfig& config,
                          const ShardStateView& ckpt,
                          std::vector<EdgeQuery>& queries,
                          std::uint64_t total_edges, std::string* why) {
  const ShardHeader& h = ckpt.header;
  if (h.worker_id != config.worker_id ||
      h.num_workers != config.num_workers ||
      h.stream_fingerprint != config.stream_fingerprint ||
      h.stream_length != config.edges.size() ||
      h.spec_fingerprint != config.spec_fingerprint ||
      h.ranges != config.ranges || h.edges_done > total_edges ||
      ckpt.query_states.size() != config.specs.size()) {
    *why = "checkpoint header does not match this worker configuration";
    return false;
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (ckpt.query_states[i].first != config.specs[i].name) {
      *why = "checkpoint query order does not match the spec order";
      return false;
    }
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    StateReader r(ckpt.query_states[i].second);
    if (!queries[i].algorithm->RestoreState(r) || !r.AtEnd()) {
      *why = "checkpoint state blob rejected for query '" +
             config.specs[i].name + "'";
      // Never half-restored: queries [0, i] may hold checkpoint state
      // (RestoreState validates before it mutates, but a trailing-bytes
      // failure is seen after it), so rebuild them fresh.
      for (std::size_t j = 0; j <= i; ++j) {
        queries[j] = MakeEdgeQuery(config.specs[j]);
      }
      return false;
    }
  }
  return true;
}

}  // namespace

ShardWorkerOutcome RunShardWorker(const ShardWorkerConfig& config,
                                  const std::string& state_out_path,
                                  std::string* error) {
  ShardWorkerOutcome out;
  const std::uint64_t total = TotalRangeEdges(config.ranges);
  const std::size_t stream_length = config.edges.size();
  for (const ShardRange& r : config.ranges) {
    CHECK_LE(r.end, stream_length) << "shard range exceeds the stream";
  }

  std::vector<EdgeQuery> queries;
  queries.reserve(config.specs.size());
  for (const QuerySpec& spec : config.specs) {
    CHECK(IsEdgeKind(spec.kind) && IsShardMergeableKind(spec.kind))
        << "shard worker given non-mergeable kind "
        << QueryKindName(spec.kind) << " (query '" << spec.name << "')";
    EdgeQuery q = MakeEdgeQuery(spec);
    // The worker runs exactly one pass over its slice; a multi-pass
    // algorithm could not be merged from partial streams.
    CHECK_EQ(q.algorithm->NumPasses(), 1);
    queries.push_back(std::move(q));
  }

  std::uint64_t done = 0;
  if (config.resume && !config.checkpoint_path.empty()) {
    MappedShardState ckpt;
    std::string why;
    if (!ckpt.Open(config.checkpoint_path, &why)) {
      LOG(WARNING) << "worker " << config.worker_id
                   << ": no usable checkpoint (" << why
                   << "); starting from scratch";
    } else if (!TryRestoreCheckpoint(config, ckpt.view(), queries, total,
                                     &why)) {
      LOG(WARNING) << "worker " << config.worker_id
                   << ": checkpoint rejected (" << why
                   << "); starting from scratch";
    } else {
      done = ckpt.header().edges_done;
      out.resumed = true;
    }
  }
  if (!out.resumed) {
    // A resumed worker skips StartPass — it already ran before the
    // checkpoint (no-op for the mergeable kinds, but the contract is the
    // driver's).
    for (EdgeQuery& q : queries) q.algorithm->StartPass(0, stream_length);
  }

  const std::uint64_t epoch = config.epoch_edges;
  const bool checkpoints = epoch > 0 && !config.checkpoint_path.empty();
  std::uint64_t next_ckpt =
      checkpoints ? (done / epoch + 1) * epoch : kNoDeath;
  const std::uint64_t die_at = config.die_after_edges;
  const std::uint64_t hang_at = config.hang_after_edges;

  const bool heartbeats =
      config.heartbeat_edges > 0 && !config.heartbeat_path.empty();
  std::uint64_t hb_seq = 0;
  std::uint64_t next_hb = 0;
  auto beat = [&]() {
    if (!heartbeats) return;
    if (AppendHeartbeat(config.heartbeat_path,
                        {config.worker_id, done, hb_seq})) {
      ++out.heartbeats_written;
    }
    ++hb_seq;
    next_hb = done + config.heartbeat_edges;
  };
  beat();  // Launch beacon: the watchdog sees liveness before edge 1.

  auto header_at = [&](std::uint64_t edges_done) {
    ShardHeader h;
    h.worker_id = config.worker_id;
    h.num_workers = config.num_workers;
    h.stream_fingerprint = config.stream_fingerprint;
    h.stream_length = stream_length;
    h.spec_fingerprint = config.spec_fingerprint;
    h.edges_done = edges_done;
    h.epoch = epoch > 0 ? edges_done / epoch : 0;
    h.ranges = config.ranges;
    return h;
  };

  auto write_checkpoint = [&]() -> bool {
    // Checkpoints are recovery roots: durable (file + directory fsync).
    std::string why;
    if (!WriteWorkerState(config.checkpoint_path, header_at(done),
                          config.specs, queries, /*durable=*/true, &why)) {
      LOG(WARNING) << "worker " << config.worker_id
                   << ": checkpoint write failed (" << why << ")";
      return false;
    }
    ++out.checkpoints_written;
    return true;
  };

  std::uint64_t local_base = 0;  // Worker-local index of the range's start.
  for (const ShardRange& range : config.ranges) {
    const std::uint64_t r_size = range.size();
    // Resume support: skip the part of this range already processed.
    std::uint64_t offset = 0;
    if (done > local_base) offset = std::min(done - local_base, r_size);
    while (offset < r_size) {
      if (die_at != kNoDeath && done == die_at) {
        out.edges_done = done;
        return out;  // completed stays false: the injected kill fired.
      }
      if (hang_at != kNoDeath && done == hang_at) {
        // Injected hang: stop progressing AND stop heartbeating — the
        // shape of a wedged subprocess the watchdog must kill.
        for (;;) SleepMs(1000);
      }
      std::uint64_t n =
          std::min<std::uint64_t>(config.block_edges, r_size - offset);
      n = std::min(n, next_ckpt - done);
      if (die_at != kNoDeath && die_at > done) n = std::min(n, die_at - done);
      if (hang_at != kNoDeath && hang_at > done) {
        n = std::min(n, hang_at - done);
      }
      const std::size_t global = static_cast<std::size_t>(range.begin + offset);
      const std::span<const Edge> block =
          config.edges.subspan(global, static_cast<std::size_t>(n));
      // Same fan-out order as the broker's serial path: slot order per
      // block.
      for (EdgeQuery& q : queries) {
        q.algorithm->ProcessEdgeBlock(0, block, global);
      }
      offset += n;
      done += n;
      if (config.throttle_ms_per_block > 0) {
        SleepMs(config.throttle_ms_per_block);
      }
      if (heartbeats && done >= next_hb) beat();
      if (done == next_ckpt) {
        write_checkpoint();
        next_ckpt += epoch;
        if (WorkerDrainRequested()) {
          // Drain lands exactly at an epoch boundary: the checkpoint just
          // written is the resume point; no final state is produced.
          out.drained = true;
          out.edges_done = done;
          return out;
        }
      } else if (!checkpoints && WorkerDrainRequested()) {
        // No checkpoint cadence to align with: stop at the block boundary.
        // Progress is lost, but the resumed wave re-runs deterministically.
        out.drained = true;
        out.edges_done = done;
        return out;
      }
    }
    local_base += r_size;
  }
  if (die_at != kNoDeath && done == die_at && die_at == total) {
    // Killed after the final edge but before finalize/save.
    out.edges_done = done;
    return out;
  }
  CHECK_EQ(done, total);

  for (EdgeQuery& q : queries) q.algorithm->EndPass(0);

  // The final state is atomic (tmp + rename) but not fsynced: it is a
  // hand-off to the coordinator, not a recovery root. A file torn by a
  // power loss fails its CRC on collection and the shard is re-run.
  if (!WriteWorkerState(state_out_path, header_at(total), config.specs,
                        queries, /*durable=*/false, error)) {
    out.edges_done = done;
    return out;
  }
  out.completed = true;
  out.edges_done = done;
  return out;
}

std::string FormatShardRanges(const std::vector<ShardRange>& ranges) {
  std::string out;
  for (const ShardRange& r : ranges) {
    if (!out.empty()) out += ",";
    out += std::to_string(r.begin) + ":" + std::to_string(r.end);
  }
  return out;
}

bool ParseShardRanges(std::string_view text, std::vector<ShardRange>* ranges) {
  std::vector<ShardRange> parsed;
  std::size_t pos = 0;
  auto parse_u64 = [&](char terminator, std::uint64_t* value) {
    const char* begin = text.data() + pos;
    if (pos >= text.size() || *begin < '0' || *begin > '9') return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(begin, &end, 10);
    if (errno == ERANGE || end == begin) return false;
    pos = static_cast<std::size_t>(end - text.data());
    if (terminator == '\0') {
      if (pos != text.size() && text[pos] != ',') return false;
    } else {
      if (pos >= text.size() || text[pos] != terminator) return false;
      ++pos;
    }
    *value = static_cast<std::uint64_t>(v);
    return true;
  };
  while (pos < text.size()) {
    ShardRange r;
    if (!parse_u64(':', &r.begin) || !parse_u64('\0', &r.end) ||
        r.begin > r.end) {
      return false;
    }
    parsed.push_back(r);
    if (pos < text.size()) {
      ++pos;  // Skip the comma.
      if (pos == text.size()) return false;  // Trailing comma.
    }
  }
  if (parsed.empty()) return false;
  *ranges = std::move(parsed);
  return true;
}

}  // namespace cyclestream::engine
