#include "server/client.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <string_view>

#include "common/error.hpp"
#include "common/json.hpp"

namespace perfknow::server {

Client::Client(const std::filesystem::path& socket_path) {
  if (socket_path.string().size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw InvalidArgumentError("Client: socket path '" +
                               socket_path.string() +
                               "' exceeds the AF_UNIX path limit");
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw IoError("Client: socket(): " + std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw IoError("Client: cannot connect to '" + socket_path.string() +
                  "': " + why);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_line(const std::string& line) {
  send_bytes(line + '\n');
}

void Client::send_bytes(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw IoError("Client: connection lost while sending");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Client::shutdown_send() { ::shutdown(fd_, SHUT_WR); }

void Client::send_file(int file_fd, std::uint64_t n,
                       const std::filesystem::path& file) {
  // sendfile has no MSG_NOSIGNAL: SIGPIPE is blocked while it runs, and
  // one it raised on a closed peer is taken back before the old mask is
  // restored (unless one was already pending).
  sigset_t pipe_set;
  sigset_t old_set;
  sigset_t pending;
  sigemptyset(&pipe_set);
  sigaddset(&pipe_set, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &pipe_set, &old_set);
  sigpending(&pending);
  const bool was_pending = sigismember(&pending, SIGPIPE) == 1;
  off_t offset = 0;
  int error = 0;
  while (static_cast<std::uint64_t>(offset) < n) {
    const ssize_t r = ::sendfile(
        fd_, file_fd, &offset,
        static_cast<std::size_t>(n - static_cast<std::uint64_t>(offset)));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      error = r < 0 ? errno : 0;
      break;
    }
  }
  if (error == EPIPE && !was_pending) {
    const timespec zero{};
    (void)sigtimedwait(&pipe_set, nullptr, &zero);
  }
  pthread_sigmask(SIG_SETMASK, &old_set, nullptr);
  if (error != 0) throw IoError("Client: connection lost while sending");
  if (static_cast<std::uint64_t>(offset) < n) {
    // The request line promised n bytes: the frame cannot be completed.
    ::close(fd_);
    fd_ = -1;
    throw IoError("Client::upload_file: " + file.string() + " ended after " +
                  std::to_string(offset) + " of " + std::to_string(n) +
                  " bytes");
  }
}

std::string Client::read_line() {
  constexpr std::size_t kChunk = 64 << 10;
  for (;;) {
    std::string_view line;
    if (buffer_.next_line(line)) return std::string(line);
    const ssize_t n = ::recv(fd_, buffer_.prepare(kChunk), kChunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw IoError("Client: server closed the connection");
    }
    buffer_.commit(static_cast<std::size_t>(n));
  }
}

std::string Client::send(const std::string& method,
                         const std::string& params_json) {
  const std::string id = std::to_string(next_id_++);
  send_line("{\"api\":" + json::quote(std::string(wire::kApi)) +
            ",\"id\":" + json::quote(id) +
            ",\"method\":" + json::quote(method) +
            ",\"params\":" + params_json + "}");
  return id;
}

Client::Response Client::collect(const std::string& id) {
  Response r;
  std::size_t parked_scan = 0;
  for (;;) {
    std::string line;
    if (parked_scan < parked_.size()) {
      line = parked_[parked_scan];
    } else {
      line = read_line();
    }
    const json::Value doc = json::parse(line);
    const json::Value* line_id = doc.find("id");
    if (line_id == nullptr ||
        line_id->kind != json::Value::Kind::kString ||
        line_id->text != id) {
      // Someone else's response; keep it for their collect().
      if (parked_scan >= parked_.size()) {
        parked_.push_back(std::move(line));
      }
      ++parked_scan;
      continue;
    }
    if (parked_scan < parked_.size()) {
      parked_.erase(parked_.begin() +
                    static_cast<std::ptrdiff_t>(parked_scan));
    }
    const json::Value* event = doc.find("event");
    const std::string kind =
        (event != nullptr && event->kind == json::Value::Kind::kString)
            ? event->text
            : "";
    if (kind == "error") {
      r.is_error = true;
      if (const json::Value* err = doc.find("error"); err != nullptr) {
        if (const json::Value* code = err->find("code");
            code != nullptr && code->kind == json::Value::Kind::kString) {
          r.error = wire::error_code(code->text);
        }
        if (const json::Value* msg = err->find("message");
            msg != nullptr && msg->kind == json::Value::Kind::kString) {
          r.error_message = msg->text;
        }
      }
      return r;
    }
    // Re-render the "data" payload positionally: it starts right after
    // ,"data": and runs to the closing brace of the envelope.
    std::string data;
    const std::string marker = ",\"data\":";
    if (const std::size_t at = line.find(marker);
        at != std::string::npos && line.size() > at + marker.size()) {
      data = line.substr(at + marker.size(),
                         line.size() - at - marker.size() - 1);
    }
    if (kind == "result") {
      r.result = data;
      return r;
    }
    r.events.push_back(Event{kind, data, line});
  }
}

Client::Response Client::call(const std::string& method,
                              const std::string& params_json) {
  return collect(send(method, params_json));
}

Client::Response Client::upload_file(const std::string& application,
                                     const std::string& experiment,
                                     const std::filesystem::path& file,
                                     const std::string& version,
                                     const std::string& predecessor) {
  struct File {
    int fd;
    ~File() {
      if (fd >= 0) ::close(fd);
    }
  } const in{::open(file.c_str(), O_RDONLY | O_CLOEXEC)};
  struct stat st {};
  if (in.fd < 0 || ::fstat(in.fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    throw IoError("Client::upload_file: cannot open: " + file.string());
  }
  const auto body_bytes = static_cast<std::uint64_t>(st.st_size);
  std::string params = "{\"application\":" + json::quote(application) +
                       ",\"experiment\":" + json::quote(experiment);
  if (!version.empty()) {
    params += ",\"version\":" + json::quote(version);
  } else {
    // Without a version the trial keeps an addressable name: the
    // uploaded file's stem, not the server's "upload-<n>".
    params += ",\"trial\":" + json::quote(file.stem().string());
  }
  if (!predecessor.empty()) {
    params += ",\"predecessor\":" + json::quote(predecessor);
  }
  // The file's bytes follow the request line as they are, sent from the
  // file without a copy in this process.
  params += ",\"body_bytes\":" + std::to_string(body_bytes) + "}";
  const std::string id = send("upload", params);
  send_file(in.fd, body_bytes, file);
  return collect(id);
}

}  // namespace perfknow::server
