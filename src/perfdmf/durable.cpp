#include "perfdmf/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace perfknow::perfdmf::detail {

namespace {

std::atomic<std::uint64_t> g_operations{0};
std::atomic<std::uint64_t> g_fail_at{0};  ///< absolute number; 0 = never

/// Counts one operation; true when it is the one armed to fail.
bool injected_fault() {
  const std::uint64_t n = g_operations.fetch_add(1) + 1;
  if (n != g_fail_at.load()) return false;
  errno = EIO;
  return true;
}

ssize_t sys_write(int fd, const char* p, std::size_t n) {
  return injected_fault() ? -1 : ::write(fd, p, n);
}
int sys_fsync(int fd) { return injected_fault() ? -1 : ::fsync(fd); }
int sys_rename(const char* from, const char* to) {
  return injected_fault() ? -1 : std::rename(from, to);
}

std::string why(int err) { return std::strerror(err); }

/// An ostream buffer over a raw fd: 1 MiB of buffering, larger pieces
/// (a snapshot's column sections) written straight through. Remembers
/// the first errno; every later write fails.
class FdBuf final : public std::streambuf {
 public:
  explicit FdBuf(int fd) : fd_(fd), buf_(std::size_t{1} << 20) {
    reset();
  }
  [[nodiscard]] int error() const noexcept { return error_; }

 protected:
  int_type overflow(int_type c) override {
    if (!drain()) return traits_type::eof();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    // An empty write may pass a null `s` (an empty section payload), which
    // memcpy must not see even with a zero length.
    if (n <= 0) return 0;
    if (n < epptr() - pptr()) {
      std::memcpy(pptr(), s, static_cast<std::size_t>(n));
      pbump(static_cast<int>(n));
      return n;
    }
    return drain() && write_all(s, static_cast<std::size_t>(n)) ? n : 0;
  }
  int sync() override { return drain() ? 0 : -1; }

 private:
  void reset() { setp(buf_.data(), buf_.data() + buf_.size()); }
  bool drain() {
    const bool ok =
        write_all(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    reset();
    return ok;
  }
  bool write_all(const char* p, std::size_t n) {
    while (n > 0 && error_ == 0) {
      const ssize_t w = sys_write(fd_, p, n);
      if (w < 0) {
        if (errno != EINTR) error_ = errno;
        continue;
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    return error_ == 0;
  }

  int fd_;
  std::vector<char> buf_;
  int error_ = 0;
};

/// fsyncs a directory, so the names renamed into it persist.
void sync_directory(const std::filesystem::path& dir) {
  const std::string path = dir.empty() ? "." : dir.string();
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    throw IoError("cannot open directory: " + path + ": " + why(errno));
  }
  const int rc = sys_fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) throw IoError("fsync failed: " + path + ": " + why(err));
}

/// A temp file a write_durably() call is filling; closed, and removed
/// unless it was renamed into place, when the call unwinds.
struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  ~TempFile() {
    if (fd >= 0) ::close(fd);
    if (!renamed) ::unlink(path.c_str());
  }
  std::string path;
  int fd = -1;
  bool renamed = false;
};

}  // namespace

void write_durably(const std::vector<DurableFile>& files) {
  std::deque<TempFile> temps;
  for (const DurableFile& file : files) {
    TempFile& tmp = temps.emplace_back(file.dest.string() + ".tmp");
    tmp.fd = ::open(tmp.path.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (tmp.fd < 0) {
      throw IoError("cannot open for writing: " + tmp.path + ": " +
                    why(errno));
    }
    FdBuf buf(tmp.fd);
    std::ostream os(&buf);
    file.fill(os);
    os.flush();
    if (buf.error() != 0 || !os) {
      throw IoError("write failed: " + tmp.path + ": " +
                    why(buf.error() != 0 ? buf.error() : EIO));
    }
  }
  // Written back to back, the files usually share one journal commit.
  for (TempFile& tmp : temps) {
    if (sys_fsync(tmp.fd) != 0) {
      throw IoError("fsync failed: " + tmp.path + ": " + why(errno));
    }
    if (::close(std::exchange(tmp.fd, -1)) != 0) {
      throw IoError("close failed: " + tmp.path + ": " + why(errno));
    }
  }
  std::vector<std::filesystem::path> dirs;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::filesystem::path& dest = files[i].dest;
    if (sys_rename(temps[i].path.c_str(), dest.c_str()) != 0) {
      throw IoError("cannot rename " + temps[i].path + " -> " +
                    dest.string() + ": " + why(errno));
    }
    temps[i].renamed = true;
    if (std::find(dirs.begin(), dirs.end(), dest.parent_path()) ==
        dirs.end()) {
      dirs.push_back(dest.parent_path());
    }
  }
  for (const auto& dir : dirs) sync_directory(dir);
}

void fail_nth_operation(std::uint64_t k) {
  g_fail_at.store(k == 0 ? 0 : g_operations.load() + k);
}

std::uint64_t operation_count() { return g_operations.load(); }

}  // namespace perfknow::perfdmf::detail
