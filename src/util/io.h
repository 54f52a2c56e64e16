#ifndef CYCLESTREAM_UTIL_IO_H_
#define CYCLESTREAM_UTIL_IO_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cyclestream::io {

/// EINTR-safe raw-I/O helpers shared by every durable writer in the tree
/// (stream/checkpoint snapshots, shard state files, epoch and daemon
/// manifests, heartbeat appends). Two rules, applied uniformly:
///
///  1. Every read/write/fsync retries EINTR and resumes partial transfers —
///     a signal (the supervisor's own SIGTERM drain handler, a profiler's
///     SIGPROF) must never turn into a torn file or a spurious I/O error.
///  2. Durable writes are atomic *and* crash-safe: tmp + write + fsync(file)
///     + rename + fsync(parent dir). Without the final directory fsync a
///     crash immediately after the rename can lose the directory entry —
///     the classic "rename is atomic but not durable" hole.

/// Test-only deterministic syscall fault injection. When installed, the
/// wrappers consult it before each raw syscall: the eintr_* budgets make
/// the next N calls fail with EINTR (no syscall issued), the short_* caps
/// truncate each transfer so the resume loops are exercised, and `fsynced`
/// records the label of every successful fsync (file paths and directory
/// paths) so durability tests can assert the parent directory was synced.
struct SyscallFaults {
  int eintr_reads = 0;
  int eintr_writes = 0;
  int eintr_fsyncs = 0;
  std::size_t short_read_cap = 0;   // 0 = off; else max bytes per read().
  std::size_t short_write_cap = 0;  // 0 = off; else max bytes per write().
  std::vector<std::string> fsynced;
};

/// Installs `faults` (nullptr clears); returns the previous pointer. Not
/// thread-safe — single-threaded tests only.
SyscallFaults* ExchangeSyscallFaults(SyscallFaults* faults);

/// Reads exactly `n` bytes unless EOF arrives first, retrying EINTR and
/// short reads. Returns false only on a real I/O error; `*got` holds the
/// byte count either way (got < n with true means EOF).
bool ReadFull(int fd, void* buf, std::size_t n, std::size_t* got);

/// Writes all `n` bytes, retrying EINTR and short writes. False on error.
bool WriteFull(int fd, const void* buf, std::size_t n);

/// fsync with EINTR retry. `label` names the target in the fault-injection
/// record (and error logs) — pass the path being synced.
bool FsyncFd(int fd, const std::string& label);

/// Directory part of `path` ("." when there is no slash).
std::string DirName(const std::string& path);

/// Opens the parent directory of `path` and fsyncs it, making a completed
/// rename into that directory durable. False with `*error` set on failure.
bool FsyncParentDir(const std::string& path, std::string* error);

/// Reads a whole file (EINTR-safe): sized by fstat, then one ReadFull into
/// a buffer of that size. The result is the file as of the open — bytes a
/// concurrent appender adds afterwards are not read, and a file that
/// shrinks meanwhile yields the bytes that were there. False with `*error`
/// set if the file cannot be opened or a read fails.
bool ReadFileToString(const std::string& path, std::string* out,
                      std::string* error);

/// Streaming atomic write: Open stages `path.tmp`, Write appends to it
/// (WriteFull), Commit renames it over `path`. The rename is atomic either
/// way: a reader sees the old file or the whole new one. With `durable`,
/// Commit also fsyncs the file before the rename and the parent directory
/// after it, so a power loss cannot lose or tear a committed file. Without
/// it, a power loss may leave `path` torn or missing — acceptable only for
/// CRC-guarded outputs whose loss costs a rerun, never for recovery roots.
/// Every failure removes the tmp file and sets `*error`; a writer
/// destroyed before Commit removes it too. Write and Commit belong after a
/// successful Open, and after no failed call.
class AtomicFileWriter {
 public:
  AtomicFileWriter() = default;
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  bool Open(const std::string& path, std::string* error);
  bool Write(std::string_view data, std::string* error);
  bool Commit(bool durable, std::string* error);

 private:
  void Abandon();

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
};

/// Durable atomic write: `path.tmp` + WriteFull + fsync(file) + rename +
/// fsync(parent) — AtomicFileWriter with durable=true. A crash at any point
/// leaves either the old file or the new one, never a torn or missing
/// entry. False with `*error` set (and the tmp file removed) on any
/// failure.
bool WriteFileAtomic(const std::string& path, std::string_view data,
                     std::string* error);

/// A whole file mapped read-only (MAP_PRIVATE), for decoders that walk
/// large files in place instead of copying them into a buffer. Move-only;
/// unmaps on destruction. An empty file maps to an empty view.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path`, replacing any previous mapping. False with `*error` set
  /// if it cannot be opened, stat'ed or mapped.
  bool Open(const std::string& path, std::string* error);

  std::string_view bytes() const {
    return {static_cast<const char*>(map_), size_};
  }

  /// Drops the mapping's resident pages from this process (MADV_DONTNEED);
  /// they stay in the page cache, and the next read of bytes() faults them
  /// back in from the same file. Lets a caller keep several validated
  /// mappings open while holding the pages of only the one it is reading.
  void ReleasePages() const;

 private:
  void Close();

  void* map_ = nullptr;
  std::size_t size_ = 0;
};

/// O_APPEND + WriteFull, creating the file if needed — the heartbeat
/// append path. Not fsynced: heartbeats are liveness signals, not durable
/// state, and a torn tail is tolerated by the reader.
bool AppendToFile(const std::string& path, std::string_view data,
                  std::string* error);

}  // namespace cyclestream::io

#endif  // CYCLESTREAM_UTIL_IO_H_
