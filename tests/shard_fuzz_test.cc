// Structure-aware fuzzing of the shard state decoder (CYSF frames,
// src/engine/shard) behind its CRCs. Every case starts from a real worker
// state file, mutates the frame structure, the header, the query frames or
// the arb-f2 blobs inside them, and then re-seals every frame CRC so the
// mutation reaches the decoder instead of dying at the checksum. Each case
// must either be rejected with a message or round-trip, through both the
// owning decode (DecodeShardState) and the coordinator's mapped
// collect-and-fold path (CollectWorkerState + MergeState). A rejected
// MergeState must leave its target's state bytes unchanged. Fixed seed,
// fixed iteration budget: the run is reproducible and bounded, and it runs
// under the sanitizer builds with the rest of the suite.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/arb_f2_counter.h"
#include "engine/coordinator.h"
#include "engine/query.h"
#include "engine/shard.h"
#include "engine/spec.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "hash/rng.h"
#include "sketch/signed_slots.h"
#include "stream/checkpoint.h"
#include "stream/order.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace cyclestream::engine {
namespace {

constexpr std::size_t kFrameHeaderSize = 20;  // magic, type, size, crc.

std::uint64_t GetLE(std::string_view bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(bytes[at + i])} << (8 * i);
  }
  return v;
}

void SetLE(std::string* bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// A state file taken apart into frames; Seal() reassembles it with every
// frame's size and CRC recomputed over its (possibly mutated) payload.
struct Frame {
  std::uint32_t type = 0;
  std::string payload;
};

std::vector<Frame> SplitFrames(std::string_view bytes) {
  std::vector<Frame> frames;
  std::size_t pos = 0;
  FrameType type;
  std::string_view payload;
  while (pos < bytes.size()) {
    std::string error;
    EXPECT_TRUE(ReadFrame(bytes, &pos, &type, &payload, &error)) << error;
    frames.push_back({static_cast<std::uint32_t>(type), std::string(payload)});
  }
  return frames;
}

std::string Seal(const std::vector<Frame>& frames) {
  std::string out;
  for (const Frame& f : frames) {
    out.append("CYSF", 4);
    std::string header(16, '\0');
    SetLE(&header, 0, f.type, 4);
    SetLE(&header, 4, f.payload.size(), 8);
    SetLE(&header, 12, Crc32(f.payload), 4);
    out += header;
    out += f.payload;
  }
  return out;
}

// The fixture: a real two-query worker run over a small stream, whose
// final state file every case mutates.
struct Fixture {
  EdgeStream stream;
  std::vector<QuerySpec> specs;
  WorkerLaunch launch;
  std::string bytes;
};

Fixture MakeFixture(const std::string& dir) {
  Fixture fx;
  Rng gen(71);
  EdgeList graph = ErdosRenyiGnm(40, 150, gen);
  Rng order(72);
  fx.stream = MakeRandomOrderStream(graph, order);
  for (int i = 0; i < 2; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kArbF2;
    spec.name = "arb-f2-" + std::to_string(i);
    spec.base.epsilon = 0.9;  // 3 copies per group: small blobs.
    spec.base.seed = 500 + static_cast<std::uint64_t>(i);
    spec.base.t_guess = 100.0;
    spec.num_vertices = graph.num_vertices();
    fx.specs.push_back(std::move(spec));
  }
  ShardWorkerConfig& c = fx.launch.config;
  c.specs = fx.specs;
  c.edges = fx.stream;
  c.ranges = {{20, 120}};
  c.worker_id = 1;
  c.num_workers = 3;
  c.stream_fingerprint = FingerprintEdgeStream(fx.stream);
  c.spec_fingerprint = FingerprintSpecs(fx.specs);
  fx.launch.state_path = dir + "/w.state";
  std::string error;
  const ShardWorkerOutcome outcome =
      RunShardWorker(c, fx.launch.state_path, &error);
  EXPECT_TRUE(outcome.completed) << error;
  EXPECT_TRUE(io::ReadFileToString(fx.launch.state_path, &fx.bytes, &error))
      << error;
  return fx;
}

std::string SaveBytes(const EdgeStreamAlgorithm& alg) {
  StateWriter w;
  EXPECT_TRUE(alg.SaveState(w));
  return w.Take();
}

std::string SaveBytes(const EdgeQuery& q) { return SaveBytes(*q.algorithm); }

// Offsets inside an arb-f2 SaveState blob: u32 n, size copies, i64 groups,
// double epsilon, u64 seed, double f1_correction, u64 updates (the step
// count that bounds every slot), then Vec A, B, C of int32 slots.
constexpr std::size_t kConfigOffsets[] = {0, 4, 12, 20, 28, 36};
constexpr int kConfigWidths[] = {4, 8, 8, 8, 8, 8};
constexpr std::size_t kUpdatesOffset = 44;
constexpr std::size_t kFirstVecOffset = 52;
constexpr std::size_t kSlotSize = sizeof(std::int32_t);

// Query-state frame payload: Str(name) Str(blob).
std::size_t BlobOffset(const std::string& payload) {
  return 8 + static_cast<std::size_t>(GetLE(payload, 0, 8)) + 8;
}

// Picks a replacement for a length or count field: near misses, zero, and
// values large enough to overflow a naive size computation.
std::uint64_t MutateCount(std::uint64_t v, Rng& rng) {
  switch (rng.Next() % 6) {
    case 0:
      return v + 1 + rng.Next() % 16;
    case 1:
      return v > 0 ? v - 1 - rng.Next() % std::min<std::uint64_t>(v, 16) : 1;
    case 2:
      return 0;
    case 3:
      return std::uint64_t{1} << (32 + rng.Next() % 31);
    case 4:
      return ~std::uint64_t{0} - rng.Next() % 64;
    default:
      return v ^ (std::uint64_t{1} << (rng.Next() % 64));
  }
}

// Applies one structure-aware mutation to `frames` (indices 0 = header,
// 1..q = query states, last = footer in the valid layout). Returns a label
// for failure messages.
std::string Mutate(std::vector<Frame>& frames, Rng& rng) {
  if (frames.empty()) {
    frames.push_back({static_cast<std::uint32_t>(FrameType::kHeader), ""});
    return "empty file gets a header";
  }
  const std::size_t n = frames.size();
  const std::size_t k = rng.Next() % n;
  Frame& f = frames[k];
  const auto query_frame = [&]() -> Frame* {
    for (int tries = 0; tries < 8; ++tries) {
      Frame& c = frames[rng.Next() % n];
      if (c.type == static_cast<std::uint32_t>(FrameType::kQueryState) &&
          c.payload.size() >= 16 &&
          GetLE(c.payload, 0, 8) <= c.payload.size() - 16) {
        return &c;
      }
    }
    return nullptr;
  };
  switch (rng.Next() % 13) {
    case 0: {  // Header query count (last field of the header payload).
      if (frames[0].payload.size() < 8) return "noop";
      std::string& p = frames[0].payload;
      const std::size_t at = p.size() - 8;
      SetLE(&p, at, MutateCount(GetLE(p, at, 8), rng), 8);
      return "header query count";
    }
    case 1: {  // Header range count (after seven fixed fields).
      std::string& p = frames[0].payload;
      if (p.size() < 48) return "noop";
      SetLE(&p, 40, MutateCount(GetLE(p, 40, 8), rng), 8);
      return "header range count";
    }
    case 2: {  // Footer count.
      std::string& p = frames.back().payload;
      if (p.size() < 8) return "noop";
      SetLE(&p, 0, MutateCount(GetLE(p, 0, 8), rng), 8);
      return "footer count";
    }
    case 3: {  // Query name length.
      Frame* q = query_frame();
      if (q == nullptr) return "noop";
      SetLE(&q->payload, 0, MutateCount(GetLE(q->payload, 0, 8), rng), 8);
      return "query name length";
    }
    case 4: {  // Query blob length.
      Frame* q = query_frame();
      if (q == nullptr) return "noop";
      const std::size_t at = BlobOffset(q->payload) - 8;
      SetLE(&q->payload, at, MutateCount(GetLE(q->payload, at, 8), rng), 8);
      return "query blob length";
    }
    case 5: {  // Swap two frames.
      std::swap(f, frames[rng.Next() % n]);
      return "swap frames";
    }
    case 6: {  // Duplicate a frame somewhere.
      const Frame copy = f;
      frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(rng.Next() %
                                                                 (n + 1)),
                    copy);
      return "duplicate frame";
    }
    case 7: {  // Drop a frame.
      frames.erase(frames.begin() + static_cast<std::ptrdiff_t>(k));
      return "drop frame";
    }
    case 8: {  // A MergeState config field inside a blob.
      Frame* q = query_frame();
      if (q == nullptr) return "noop";
      const std::size_t blob = BlobOffset(q->payload);
      const std::size_t field = rng.Next() % 6;
      const std::size_t at = blob + kConfigOffsets[field];
      const int width = kConfigWidths[field];
      if (at + width > q->payload.size()) return "noop";
      SetLE(&q->payload, at,
            GetLE(q->payload, at, width) ^
                (std::uint64_t{1} << (rng.Next() % (8 * width))),
            width);
      return "blob config field " + std::to_string(field);
    }
    case 9: {  // A Vec size prefix inside a blob.
      Frame* q = query_frame();
      if (q == nullptr) return "noop";
      const std::size_t blob = BlobOffset(q->payload);
      std::size_t at = blob + kFirstVecOffset;
      for (std::uint64_t v = rng.Next() % 3; v > 0; --v) {
        if (at + 8 > q->payload.size()) return "noop";
        at += 8 + kSlotSize *
                      static_cast<std::size_t>(GetLE(q->payload, at, 8));
      }
      if (at + 8 > q->payload.size()) return "noop";
      SetLE(&q->payload, at, MutateCount(GetLE(q->payload, at, 8), rng), 8);
      return "blob vector size";
    }
    case 10: {  // Grow or shrink a blob, keeping its Str length consistent.
      Frame* q = query_frame();
      if (q == nullptr) return "noop";
      const std::size_t blob = BlobOffset(q->payload);
      const std::size_t delta = 1 + rng.Next() % 24;
      if (rng.Next() % 2 == 0) {
        q->payload.append(delta, static_cast<char>(rng.Next() & 0xff));
      } else if (q->payload.size() - blob >= delta) {
        q->payload.resize(q->payload.size() - delta);
      }
      SetLE(&q->payload, blob - 8, q->payload.size() - blob, 8);
      return "blob resized";
    }
    case 11: {  // The step count: past int32, below the largest slot, or
               // any count MutateCount picks.
      Frame* q = query_frame();
      if (q == nullptr) return "noop";
      const std::size_t at = BlobOffset(q->payload) + kUpdatesOffset;
      if (at + 8 > q->payload.size()) return "noop";
      const std::uint64_t v = GetLE(q->payload, at, 8);
      const std::uint64_t forged =
          rng.Next() % 2 == 0 ? rng.Next() % 8 : MutateCount(v, rng);
      SetLE(&q->payload, at, forged, 8);
      return "blob step count " + std::to_string(forged);
    }
    default: {  // Any byte of any payload, or the frame type.
      if (f.payload.empty() || rng.Next() % 4 == 0) {
        f.type = static_cast<std::uint32_t>(rng.Next() % 6);
        return "frame type";
      }
      f.payload[rng.Next() % f.payload.size()] ^=
          static_cast<char>(1 + rng.Next() % 255);
      return "payload byte";
    }
  }
}

// Mutates a sealed file's frame-size fields in place, re-sealing the CRC
// over whatever span the new size claims (when it fits in the file).
std::string MutateFrameSize(std::string bytes, Rng& rng) {
  std::vector<std::size_t> starts;
  for (std::size_t pos = 0; pos + kFrameHeaderSize <= bytes.size();) {
    starts.push_back(pos);
    pos += kFrameHeaderSize + static_cast<std::size_t>(GetLE(bytes, pos + 8, 8));
  }
  const std::size_t at = starts[rng.Next() % starts.size()];
  const std::uint64_t size = MutateCount(GetLE(bytes, at + 8, 8), rng);
  SetLE(&bytes, at + 8, size, 8);
  const std::size_t body = at + kFrameHeaderSize;
  if (size <= bytes.size() - body) {
    SetLE(&bytes, at + 16,
          Crc32(std::string_view(bytes).substr(body,
                                               static_cast<std::size_t>(size))),
          4);
  }
  return bytes;
}

TEST(ShardStateFuzzTest, MutatedFilesAreRejectedOrRoundTrip) {
  const std::string dir =
      ::testing::TempDir() + "shard_fuzz_test_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Fixture fx = MakeFixture(dir);
  ASSERT_FALSE(fx.bytes.empty());
  const std::vector<Frame> clean = SplitFrames(fx.bytes);
  ASSERT_EQ(clean.size(), 2 + fx.specs.size());
  ASSERT_EQ(Seal(clean), fx.bytes) << "re-sealing must be the identity";

  // A non-zero merge target per query (the clean state folded once), so a
  // rejected MergeState that wrote anything would show in its bytes.
  std::vector<EdgeQuery> targets = MakeMergeTargets(fx.specs);
  {
    MappedShardState mapped;
    ASSERT_TRUE(CollectWorkerState(fx.launch, fx.specs, &mapped));
    FoldShardState(fx.specs, mapped.view(), targets);
  }
  std::vector<std::string> target_bytes;
  for (const EdgeQuery& q : targets) target_bytes.push_back(SaveBytes(q));

  WorkerLaunch launch = fx.launch;
  launch.state_path = dir + "/mutated.state";
  Rng rng(20241017);
  int rejected = 0;
  int accepted = 0;
  int merges_rejected = 0;
  constexpr int kIterations = 3000;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::vector<Frame> frames = clean;
    std::string what;
    const int rounds = 1 + static_cast<int>(rng.Next() % 3);
    for (int r = 0; r < rounds; ++r) what += Mutate(frames, rng) + "; ";
    std::string bytes = Seal(frames);
    if (rng.Next() % 5 == 0 && !bytes.empty()) {
      bytes = MutateFrameSize(std::move(bytes), rng);
      what += "frame size; ";
    }
    SCOPED_TRACE("iteration " + std::to_string(iter) + ": " + what);

    // Owning decode: rejected with a message, or re-encodes to the input.
    ShardState decoded;
    std::string error;
    const bool owning_ok = DecodeShardState(bytes, &decoded, &error);
    if (owning_ok) {
      EXPECT_EQ(EncodeShardState(decoded), bytes);
    } else {
      EXPECT_FALSE(error.empty());
    }

    // Mapped path: the same verdict from the file, then the launch match.
    std::ofstream(launch.state_path, std::ios::binary | std::ios::trunc)
        << bytes;
    MappedShardState mapped;
    std::string map_error;
    const bool mapped_ok = mapped.Open(launch.state_path, &map_error);
    ASSERT_EQ(mapped_ok, owning_ok) << error << " / " << map_error;
    if (!mapped_ok) {
      EXPECT_FALSE(map_error.empty());
      ++rejected;
      continue;
    }
    if (!CollectWorkerState(launch, fx.specs, &mapped)) {
      ++rejected;
      continue;
    }
    ++accepted;
    for (std::size_t qi = 0; qi < fx.specs.size(); ++qi) {
      const std::string_view blob = mapped.view().query_states[qi].second;
      StateReader r(blob);
      if (targets[qi].algorithm->MergeState(r)) {
        // Accepted: the in-place fold must equal the decode-and-merge path
        // it replaced (RestoreState into a second instance, MergeFrom).
        std::vector<EdgeQuery> want =
            MakeMergeTargets({fx.specs[qi], fx.specs[qi]});
        StateReader base(target_bytes[qi]);
        ASSERT_TRUE(want[0].algorithm->RestoreState(base));
        StateReader other(blob);
        ASSERT_TRUE(want[1].algorithm->RestoreState(other) && other.AtEnd());
        ASSERT_TRUE(
            static_cast<ArbF2FourCycleCounter&>(*want[0].algorithm)
                .MergeFrom(static_cast<const ArbF2FourCycleCounter&>(
                    *want[1].algorithm)));
        EXPECT_EQ(SaveBytes(targets[qi]), SaveBytes(want[0]));
        // Put the shared target back for the next case.
        StateReader reset(target_bytes[qi]);
        ASSERT_TRUE(targets[qi].algorithm->RestoreState(reset));
      } else {
        ++merges_rejected;
        EXPECT_EQ(SaveBytes(targets[qi]), target_bytes[qi])
            << "a rejected MergeState changed its target";
      }
    }
  }
  // The budget must exercise every outcome, or the mutators have drifted
  // away from the format.
  EXPECT_GT(rejected, kIterations / 4);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(merges_rejected, 0);
  std::filesystem::remove_all(dir);
}

// A small arb-f2 counter and its SaveState blob, for the step-count cases.
struct StepFixture {
  EdgeList graph;
  ArbF2Params params;
  std::string blob;
};

StepFixture MakeStepFixture() {
  StepFixture fx;
  Rng gen(71);
  fx.graph = ErdosRenyiGnm(40, 150, gen);
  fx.params.base.epsilon = 0.9;
  fx.params.base.seed = 500;
  fx.params.num_vertices = fx.graph.num_vertices();
  ArbF2FourCycleCounter counter(fx.params);
  for (const Edge& e : fx.graph.edges()) counter.Insert(e);
  fx.blob = SaveBytes(counter);
  return fx;
}

// A slot beyond its blob's step count cannot come from a counter, so
// MergeState and RestoreState reject it and leave the target as it was,
// also when the bad slot is the very last one and MergeState has already
// added the first two arrays.
TEST(ShardStateFuzzTest, SlotBeyondStepCountIsRejected) {
  const StepFixture fx = MakeStepFixture();
  ArbF2FourCycleCounter target(fx.params);
  StateReader base(fx.blob);
  ASSERT_TRUE(target.RestoreState(base));
  const std::string before = SaveBytes(target);
  const std::uint64_t steps = GetLE(fx.blob, kUpdatesOffset, 8);
  ASSERT_EQ(steps, fx.graph.num_edges());

  std::string forged = fx.blob;
  SetLE(&forged, forged.size() - kSlotSize, steps + 1, 4);
  StateReader merge(forged);
  EXPECT_FALSE(target.MergeState(merge));
  StateReader restore(forged);
  EXPECT_FALSE(target.RestoreState(restore));
  EXPECT_EQ(SaveBytes(target), before);

  forged = fx.blob;
  SetLE(&forged, kUpdatesOffset, 0, 8);
  StateReader zero_steps(forged);
  EXPECT_FALSE(target.MergeState(zero_steps));
  EXPECT_EQ(SaveBytes(target), before);
}

// The step count bounds every slot, so it must stay within int32. A forged
// count past 2^31-1 is a malformed blob and is rejected; one at the limit
// is a valid state on its own, and taking any further step, by a merge or
// by ingest, trips the CHECK instead of overflowing a slot.
TEST(ShardStateFuzzDeathTest, ForgedStepCountTripsTheBoundCheck) {
  const StepFixture fx = MakeStepFixture();
  std::string forged = fx.blob;
  ArbF2FourCycleCounter target(fx.params);
  const std::string empty = SaveBytes(target);

  SetLE(&forged, kUpdatesOffset, kMaxSlotSteps + 1, 8);
  StateReader past_merge(forged);
  EXPECT_FALSE(target.MergeState(past_merge));
  StateReader past_restore(forged);
  EXPECT_FALSE(target.RestoreState(past_restore));
  EXPECT_EQ(SaveBytes(target), empty);

  SetLE(&forged, kUpdatesOffset, kMaxSlotSteps, 8);
  StateReader at_limit(forged);
  ASSERT_TRUE(target.MergeState(at_limit));
  EXPECT_DEATH(
      {
        StateReader again(forged);
        target.MergeState(again);
      },
      "int32 slots cannot hold exactly");
  EXPECT_DEATH(target.Insert(fx.graph.edges()[0]),
               "int32 slots cannot hold exactly");
}

}  // namespace
}  // namespace cyclestream::engine
