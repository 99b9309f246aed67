// perfbench_loadgen — the benchmark's closed-loop load generator for
// dislock_serve. It speaks the JSON-lines session protocol over TCP and
// links no dislock code, so it builds and behaves the same whatever the
// program's internals look like.
//
//   perfbench_loadgen <port> <seconds> <wrap> <limit_s> <out> <requests>...
//
// One TCP connection to 127.0.0.1:<port> per <requests> file, all driven
// from this one thread with poll(); each connection sends its next
// request only after the previous response arrived, until <seconds>
// pass; at the end of its file it wraps to the start when <wrap> is 1 and
// stops when it is 0. A request line is `verb<TAB>expect<TAB>envelope`;
// a <requests> argument of the form FILE@N starts at request N of FILE.
// Expect lists substrings (separated by \x1f) the response must hold.
// Every response must hold "ok": true; a `check` must answer SAFE or
// UNKNOWN. Writes one line per response to <out>:
// `conn request latency_ms status`, where status is o (right), e (error
// response) or w (wrong answer), followed by S (SAFE), U (UNKNOWN) or X
// (UNSAFE) for a check and by - otherwise; then a last line
// `elapsed <seconds>`. Exits 1 when a response does not arrive within
// <limit_s> or a connection fails, 2 on usage errors.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

struct Request {
  std::string verb;
  std::vector<std::string> expect;
  std::string line;  // the envelope, newline-terminated
};

struct Connection {
  int fd = -1;
  std::vector<Request> requests;
  size_t next = 0;
  Clock::time_point sent_at;
  std::string buf;
};

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

int Load(int port, double seconds, bool wrap, double limit_s,
         const char* out_path, int nfiles, char** files) {
  std::vector<Connection> conns(static_cast<size_t>(nfiles));
  for (int f = 0; f < nfiles; ++f) {
    std::string path = files[f];
    size_t start_at = 0;
    if (size_t at = path.rfind('@'); at != std::string::npos) {
      start_at = std::strtoull(path.c_str() + at + 1, nullptr, 10);
      path.resize(at);
    }
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      size_t t1 = line.find('\t');
      size_t t2 = line.find('\t', t1 + 1);
      if (t1 == std::string::npos || t2 == std::string::npos) continue;
      Request req;
      req.verb = line.substr(0, t1);
      std::string expect = line.substr(t1 + 1, t2 - t1 - 1);
      for (size_t pos = 0; pos < expect.size();) {
        size_t end = expect.find('\x1f', pos);
        if (end == std::string::npos) end = expect.size();
        if (end > pos) req.expect.push_back(expect.substr(pos, end - pos));
        pos = end + 1;
      }
      req.line = line.substr(t2 + 1) + "\n";
      conns[static_cast<size_t>(f)].requests.push_back(std::move(req));
    }
    Connection& c = conns[static_cast<size_t>(f)];
    if (!c.requests.empty()) c.next = start_at % c.requests.size();
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (c.fd < 0 || c.requests.empty() ||
        ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0) {
      std::fprintf(stderr, "cannot connect to port %d\n", port);
      return 1;
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) return 1;
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  auto send_next = [](Connection& c) {
    c.sent_at = Clock::now();
    return SendAll(c.fd, c.requests[c.next].line);
  };
  std::vector<pollfd> fds;
  for (Connection& c : conns) {
    if (!send_next(c)) return 1;
    fds.push_back({c.fd, POLLIN, 0});
  }
  int live = nfiles;
  int errors_shown = 0;
  char chunk[1 << 16];
  while (live > 0) {
    int ready = ::poll(fds.data(), fds.size(),
                       static_cast<int>(limit_s * 1000));
    if (ready <= 0) {
      std::fprintf(stderr, "no response within %.0f s\n", limit_s);
      return 1;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].fd < 0 || !(fds[i].revents & (POLLIN | POLLHUP))) continue;
      Connection& c = conns[i];
      ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        std::fprintf(stderr, "server closed connection %zu\n", i);
        return 1;
      }
      c.buf.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while ((nl = c.buf.find('\n')) != std::string::npos) {
        auto now = Clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(now - c.sent_at)
                .count();
        const Request& req = c.requests[c.next];
        std::string_view resp(c.buf.data(), nl);
        char status = 'o';
        char verdict = '-';
        if (resp.find("\"ok\": true") == std::string_view::npos) {
          status = 'e';
        } else {
          for (const std::string& e : req.expect) {
            if (resp.find(e) == std::string_view::npos) status = 'w';
          }
          if (req.verb == "check") {
            constexpr std::string_view kKey = "\"verdict\": \"";
            size_t at = resp.find(kKey);
            verdict = at == std::string_view::npos ? '?'
                                                   : resp[at + kKey.size()];
            if (verdict != 'S' && verdict != 'U') status = 'w';
            // UNSAFE and UNKNOWN share a letter; tell them apart.
            if (verdict == 'U' &&
                resp.compare(at + kKey.size(), 6, "UNSAFE") == 0) {
              verdict = 'X';
              status = 'w';
            }
          }
        }
        if (status != 'o' && errors_shown < 5) {
          ++errors_shown;
          std::fprintf(stderr, "%s: %.*s\n", req.verb.c_str(),
                       static_cast<int>(std::min<size_t>(nl, 300)),
                       resp.data());
        }
        std::fprintf(out, "%zu %lld %.5f %c%c\n", i,
                     static_cast<long long>(c.next), ms, status,
                     verdict);
        c.buf.erase(0, nl + 1);
        c.next = (c.next + 1) % c.requests.size();
        if (now < deadline && (wrap || c.next != 0)) {
          if (!send_next(c)) return 1;
        } else {
          ::close(c.fd);
          fds[i].fd = -1;
          --live;
          break;
        }
      }
    }
  }
  double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::fprintf(out, "elapsed %.6f\n", elapsed);
  std::fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 7) {
    return Load(std::atoi(argv[1]), std::atof(argv[2]),
                std::strcmp(argv[3], "1") == 0, std::atof(argv[4]), argv[5],
                argc - 6, argv + 6);
  }
  std::fprintf(stderr,
               "usage: perfbench_loadgen <port> <seconds> <wrap> <limit_s> "
               "<out> <requests>...\n");
  return 2;
}
