#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.h"

namespace dislock {
namespace serve {

namespace {

// Transport-level line cap: a peer that never sends '\n' must not grow the
// buffer without bound. Larger than any session line limit so the session
// layer's structured oversized-line error stays the one clients see.
constexpr size_t kMaxBufferedBytes = 8u << 20;

int OpenListener(const std::string& host, int port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid listen address '" + host + "'";
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 128) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return -1;
  }
  return ntohs(addr.sin_port);
}

int Connect(const std::string& host, int port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid address '" + host + "'";
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect ") + host + ":" + std::to_string(port) +
             ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// One TCP connection: a reader thread splitting bytes into lines for
// Submit, plus the fd shared with the sequencer (responses) — writes are
// serialized by a per-connection mutex because the session layer's
// assembler errors and the sequencer's responses both target it. The accept
// loop frees a connection once both of its users are done: the reader has
// returned and the service has run on_close, after which it never calls
// the connection's respond callback again.
struct Connection {
  int fd = -1;
  int64_t client = -1;
  std::mutex write_mu;
  std::atomic<bool> peer_gone{false};
  std::atomic<bool> reader_done{false};
  std::atomic<bool> service_closed{false};
  std::thread reader;
};

void ReaderLoop(Connection* conn, SafetyService* service) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: flush what we have and close
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      size_t end = nl;
      if (end > start && buffer[end - 1] == '\r') --end;  // tolerate CRLF
      service->Submit(conn->client, buffer.substr(start, end - start));
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxBufferedBytes) {
      // A '\n'-less flood: feed it as one oversized line (the session layer
      // renders the structured error) and stop reading this peer.
      service->Submit(conn->client, buffer);
      break;
    }
  }
  if (!buffer.empty() && buffer.size() <= kMaxBufferedBytes) {
    service->Submit(conn->client, buffer);  // final unterminated line
  }
  service->CloseClient(conn->client);
  conn->reader_done.store(true);
}

// Joins the reader and closes the fd of every connection both sides have
// finished with, so a long-running server holds only live connections.
void ReapFinished(std::vector<std::unique_ptr<Connection>>* connections) {
  for (auto it = connections->begin(); it != connections->end();) {
    Connection& conn = **it;
    if (conn.reader_done.load() && conn.service_closed.load()) {
      conn.reader.join();
      ::close(conn.fd);
      it = connections->erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

int RunServer(SafetyService* service, const ServerOptions& options,
              std::ostream& log) {
  std::string error;
  int listen_fd = OpenListener(options.host, options.port, &error);
  if (listen_fd < 0) {
    log << "dislock_serve: " << error << "\n" << std::flush;
    return 1;
  }
  int port = BoundPort(listen_fd);
  log << "dislock_serve: listening on " << options.host << ":" << port << "\n"
      << std::flush;

  std::vector<std::unique_ptr<Connection>> connections;
  while (!service->ShutdownRequested()) {
    ReapFinished(&connections);
    pollfd pfd{listen_fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;  // timeout: re-check ShutdownRequested
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>();
    Connection* c = conn.get();
    c->fd = fd;
    c->client = service->OpenClient(
        [c](const std::string& response) {
          std::lock_guard<std::mutex> lock(c->write_mu);
          if (!c->peer_gone.load() &&
              !WriteAll(c->fd, response.data(), response.size())) {
            c->peer_gone.store(true);
          }
        },
        [c] {
          // Service is done with this client: shut the socket down so a
          // trace client blocked on recv sees EOF and the reader returns;
          // the accept loop then reaps the connection.
          c->peer_gone.store(true);
          ::shutdown(c->fd, SHUT_RDWR);
          c->service_closed.store(true);
        });
    c->reader = std::thread(ReaderLoop, c, service);
    connections.push_back(std::move(conn));
  }
  ::close(listen_fd);

  // Unblock any readers still in recv(), join them, then stop the service.
  for (auto& conn : connections) ::shutdown(conn->fd, SHUT_RDWR);
  for (auto& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  service->Shutdown();
  for (auto& conn : connections) ::close(conn->fd);
  return 0;
}

int RunClientTrace(const std::string& host, int port, std::istream& script,
                   std::ostream& out, std::ostream& log) {
  std::string error;
  int fd = Connect(host, port, &error);
  if (fd < 0) {
    log << "dislock_serve: " << error << "\n" << std::flush;
    return 1;
  }
  std::string line;
  bool ok = true;
  while (ok && std::getline(script, line)) {
    line.push_back('\n');
    ok = WriteAll(fd, line.data(), line.size());
  }
  ::shutdown(fd, SHUT_WR);  // EOF to the server; keep reading responses
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.write(chunk, n);
  }
  out.flush();
  ::close(fd);
  if (!ok) {
    log << "dislock_serve: send failed: " << std::strerror(errno) << "\n"
        << std::flush;
    return 1;
  }
  return 0;
}

}  // namespace serve
}  // namespace dislock
