#include "util/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace cyclestream::io {
namespace {

SyscallFaults* g_faults = nullptr;

// Consumes one injected EINTR from `budget` if armed. Returns true when the
// caller should behave as if the syscall failed with EINTR.
bool InjectEintr(int* budget) {
  if (g_faults == nullptr || *budget <= 0) return false;
  --*budget;
  errno = EINTR;
  return true;
}

std::size_t CapTransfer(std::size_t n, std::size_t cap) {
  return cap > 0 && cap < n ? cap : n;
}

int OpenRetry(const char* path, int flags, mode_t mode = 0) {
  for (;;) {
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

// close() is NOT retried on EINTR: POSIX leaves the fd state unspecified
// and on Linux the descriptor is gone either way — retrying risks closing
// a descriptor another thread just opened.
void CloseQuiet(int fd) { ::close(fd); }

}  // namespace

SyscallFaults* ExchangeSyscallFaults(SyscallFaults* faults) {
  SyscallFaults* prev = g_faults;
  g_faults = faults;
  return prev;
}

bool ReadFull(int fd, void* buf, std::size_t n, std::size_t* got) {
  char* p = static_cast<char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    if (g_faults != nullptr && InjectEintr(&g_faults->eintr_reads)) continue;
    std::size_t want = n - done;
    if (g_faults != nullptr) want = CapTransfer(want, g_faults->short_read_cap);
    const ssize_t r = ::read(fd, p + done, want);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (got != nullptr) *got = done;
      return false;
    }
    if (r == 0) break;  // EOF.
    done += static_cast<std::size_t>(r);
  }
  if (got != nullptr) *got = done;
  return true;
}

bool WriteFull(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    if (g_faults != nullptr && InjectEintr(&g_faults->eintr_writes)) continue;
    std::size_t want = n - done;
    if (g_faults != nullptr) {
      want = CapTransfer(want, g_faults->short_write_cap);
    }
    const ssize_t w = ::write(fd, p + done, want);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(w);
  }
  return true;
}

bool FsyncFd(int fd, const std::string& label) {
  for (;;) {
    if (g_faults != nullptr && InjectEintr(&g_faults->eintr_fsyncs)) continue;
    if (::fsync(fd) == 0) {
      if (g_faults != nullptr) g_faults->fsynced.push_back(label);
      return true;
    }
    if (errno != EINTR) return false;
  }
}

std::string DirName(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool FsyncParentDir(const std::string& path, std::string* error) {
  const std::string dir = DirName(path);
  const int fd = OpenRetry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open directory " + dir + " for fsync: " +
               std::strerror(errno);
    }
    return false;
  }
  const bool ok = FsyncFd(fd, dir);
  if (!ok && error != nullptr) {
    *error = "fsync failed for directory " + dir + ": " + std::strerror(errno);
  }
  CloseQuiet(fd);
  return ok;
}

bool ReadFileToString(const std::string& path, std::string* out,
                      std::string* error) {
  const int fd = OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    if (error != nullptr) *error = "cannot stat " + path;
    CloseQuiet(fd);
    return false;
  }
  std::string data(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  if (!ReadFull(fd, data.data(), data.size(), &got)) {
    if (error != nullptr) *error = "I/O error reading " + path;
    CloseQuiet(fd);
    return false;
  }
  CloseQuiet(fd);
  data.resize(got);  // The file shrank after the fstat.
  *out = std::move(data);
  return true;
}

AtomicFileWriter::~AtomicFileWriter() { Abandon(); }

void AtomicFileWriter::Abandon() {
  if (fd_ < 0) return;
  CloseQuiet(fd_);
  fd_ = -1;
  std::remove(tmp_.c_str());
}

bool AtomicFileWriter::Open(const std::string& path, std::string* error) {
  Abandon();
  path_ = path;
  tmp_ = path + ".tmp";
  fd_ = OpenRetry(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd_ < 0) {
    if (error != nullptr) *error = "cannot open " + tmp_ + " for writing";
    return false;
  }
  return true;
}

bool AtomicFileWriter::Write(std::string_view data, std::string* error) {
  if (!WriteFull(fd_, data.data(), data.size())) {
    if (error != nullptr) *error = "write failed for " + tmp_;
    Abandon();
    return false;
  }
  return true;
}

bool AtomicFileWriter::Commit(bool durable, std::string* error) {
  if (durable && !FsyncFd(fd_, tmp_)) {
    if (error != nullptr) *error = "fsync failed for " + tmp_;
    Abandon();
    return false;
  }
  CloseQuiet(fd_);
  fd_ = -1;
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    if (error != nullptr) {
      *error = "rename " + tmp_ + " -> " + path_ + " failed";
    }
    std::remove(tmp_.c_str());
    return false;
  }
  // The rename made the content visible; the directory fsync makes it
  // durable. Failing here is a durability loss, not an atomicity one — the
  // new file is in place — so report it honestly and let the caller decide.
  return !durable || FsyncParentDir(path_, error);
}

bool WriteFileAtomic(const std::string& path, std::string_view data,
                     std::string* error) {
  AtomicFileWriter writer;
  return writer.Open(path, error) && writer.Write(data, error) &&
         writer.Commit(/*durable=*/true, error);
}

MappedFile::~MappedFile() { Close(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Close();
    map_ = std::exchange(other.map_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MappedFile::Close() {
  if (map_ != nullptr) ::munmap(map_, size_);
  map_ = nullptr;
  size_ = 0;
}

bool MappedFile::Open(const std::string& path, std::string* error) {
  Close();
  const int fd = OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    if (error != nullptr) *error = "cannot stat " + path;
    CloseQuiet(fd);
    return false;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      if (error != nullptr) *error = "mmap failed for " + path;
      CloseQuiet(fd);
      return false;
    }
    map_ = map;
    size_ = size;
  }
  CloseQuiet(fd);  // The mapping keeps the file alive.
  return true;
}

void MappedFile::ReleasePages() const {
  if (map_ != nullptr) ::madvise(map_, size_, MADV_DONTNEED);
}

bool AppendToFile(const std::string& path, std::string_view data,
                  std::string* error) {
  const int fd = OpenRetry(path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path + " for append";
    return false;
  }
  const bool ok = WriteFull(fd, data.data(), data.size());
  if (!ok && error != nullptr) *error = "append failed for " + path;
  CloseQuiet(fd);
  return ok;
}

}  // namespace cyclestream::io
