// SafetyService: concurrent clients multiplexed onto one SessionCore. Pins
// the determinism contract (a trace submitted in a fixed global order
// yields byte-identical responses at any thread count), per-client
// response ordering under concurrent submission, quit/shutdown semantics,
// the counters surface, and that the TCP server frees finished
// connections.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/string_util.h"

namespace dislock {
namespace serve {
namespace {

ServiceOptions Options(int threads = 1) {
  ServiceOptions options;
  options.session.config.num_threads = threads;
  options.session.load_root = DISLOCK_SOURCE_DIR;
  return options;
}

/// The per-client scripts of the determinism tests: every client adds its
/// own transaction over the shared ring, checks, and removes it.
std::vector<std::vector<std::string>> MakeScripts(int clients) {
  std::vector<std::vector<std::string>> scripts(
      static_cast<size_t>(clients));
  const char* entities[] = {"a", "b", "c"};
  for (int c = 0; c < clients; ++c) {
    std::string name = StrCat("Client", c);
    const char* e = entities[c % 3];
    scripts[static_cast<size_t>(c)] = {
        "add",
        StrCat("txn ", name),
        StrCat("  lock ", e),
        StrCat("  update ", e),
        StrCat("  unlock ", e),
        "end",
        "check",
        StrCat("remove ", name),
        "check",
    };
  }
  return scripts;
}

/// Runs the scripts through `service` in deterministic round-robin global
/// order from one thread; returns each client's concatenated responses.
std::vector<std::string> RunRoundRobin(
    SafetyService* service, const std::vector<std::vector<std::string>>& s) {
  std::vector<std::string> outputs(s.size());
  std::vector<int64_t> ids;
  for (size_t i = 0; i < s.size(); ++i) {
    std::string* sink = &outputs[i];
    ids.push_back(service->OpenClient(
        [sink](const std::string& response) { *sink += response; }));
  }
  for (size_t line = 0;; ++line) {
    bool any = false;
    for (size_t i = 0; i < s.size(); ++i) {
      if (line < s[i].size()) {
        service->Submit(ids[i], s[i][line]);
        any = true;
      }
    }
    if (!any) break;
  }
  service->Drain();
  for (int64_t id : ids) service->CloseClient(id);
  service->Drain();
  return outputs;
}

TEST(SafetyService, FixedOrderTraceIsDeterministic) {
  auto scripts = MakeScripts(6);
  auto run = [&](int threads) {
    SafetyService service(Options(threads));
    int64_t loader = service.OpenClient([](const std::string&) {});
    service.Submit(loader, "load data/ring3.dlk");
    service.CloseClient(loader);
    service.Drain();
    return RunRoundRobin(&service, scripts);
  };
  std::vector<std::string> base = run(1);
  for (const std::string& bytes : base) {
    EXPECT_NE(bytes.find("\"cmd\": \"check\""), std::string::npos);
  }
  // Full responses are byte-identical, repeatedly, and at any engine
  // thread count.
  EXPECT_EQ(run(1), base);
  EXPECT_EQ(run(4), base);
}

TEST(SafetyService, ConcurrentClientsAllSucceed) {
  SafetyService service(Options());
  int64_t loader = service.OpenClient([](const std::string&) {});
  service.Submit(loader, "load data/ring3.dlk");
  service.CloseClient(loader);
  service.Drain();

  constexpr int kClients = 16;
  auto scripts = MakeScripts(kClients);
  std::vector<std::string> outputs(kClients);
  std::vector<int64_t> ids;
  for (int i = 0; i < kClients; ++i) {
    std::string* sink = &outputs[static_cast<size_t>(i)];
    ids.push_back(service.OpenClient(
        [sink](const std::string& response) { *sink += response; }));
  }
  std::vector<std::thread> workers;
  for (int i = 0; i < kClients; ++i) {
    workers.emplace_back([&, i] {
      for (const std::string& line : scripts[static_cast<size_t>(i)]) {
        service.Submit(ids[static_cast<size_t>(i)], line);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  service.Drain();

  // Interleaving is nondeterministic, but per-client responses arrive in
  // that client's submission order and every command succeeds: each client
  // adds a uniquely named transaction and removes its own.
  EXPECT_EQ(service.errors(), 0);
  for (int i = 0; i < kClients; ++i) {
    const std::string& bytes = outputs[static_cast<size_t>(i)];
    size_t add = bytes.find("\"cmd\": \"add\"");
    size_t check = bytes.find("\"cmd\": \"check\"");
    size_t remove = bytes.find("\"cmd\": \"remove\"");
    EXPECT_NE(add, std::string::npos) << bytes;
    EXPECT_NE(check, std::string::npos) << bytes;
    EXPECT_NE(remove, std::string::npos) << bytes;
    EXPECT_LT(add, check);
    EXPECT_LT(check, remove);
    EXPECT_EQ(bytes.find("\"ok\": false"), std::string::npos) << bytes;
  }
  // load + 4 commands per client (the six add-block lines assemble into
  // one `add` command).
  EXPECT_EQ(service.commands(), 1 + kClients * 4);
  EXPECT_EQ(service.clients_opened(), 1 + kClients);
  EXPECT_GE(service.queue_peak(), 1);
}

TEST(SafetyService, QuitClosesOnlyTheIssuingClient) {
  SafetyService service(Options());
  std::string a_bytes, b_bytes;
  std::atomic<bool> a_closed{false};
  int64_t a = service.OpenClient(
      [&a_bytes](const std::string& r) { a_bytes += r; },
      [&a_closed] { a_closed = true; });
  int64_t b = service.OpenClient(
      [&b_bytes](const std::string& r) { b_bytes += r; });

  service.Submit(a, "load data/ring3.dlk");
  service.Submit(a, "quit");
  service.Drain();
  EXPECT_TRUE(a_closed.load());
  EXPECT_FALSE(service.ShutdownRequested());

  // Lines after quit are dropped; the other client keeps working.
  service.Submit(a, "check");
  service.Submit(b, "check");
  service.Drain();
  EXPECT_EQ(a_bytes.find("\"cmd\": \"check\""), std::string::npos);
  EXPECT_NE(b_bytes.find("\"cmd\": \"check\""), std::string::npos);
}

TEST(SafetyService, ShutdownVerbAnswersThenFlipsTheFlag) {
  SafetyService service(Options());
  std::string bytes;
  int64_t client = service.OpenClient(
      [&bytes](const std::string& r) { bytes += r; });
  EXPECT_FALSE(service.ShutdownRequested());
  service.Submit(client, "shutdown");
  service.WaitForShutdownRequest();
  EXPECT_TRUE(service.ShutdownRequested());
  service.Drain();
  EXPECT_EQ(bytes,
            "{\"schema_version\": 1, \"cmd\": \"shutdown\", \"ok\": true}\n");
}

TEST(SafetyService, CloseMidBlockFlushesTheUnterminatedError) {
  SafetyService service(Options());
  std::string bytes;
  int64_t client = service.OpenClient(
      [&bytes](const std::string& r) { bytes += r; });
  service.Submit(client, "load data/ring3.dlk");
  service.Submit(client, "add");
  service.Submit(client, "txn Dangling");
  service.CloseClient(client);  // EOF mid-block
  service.Drain();
  EXPECT_NE(bytes.find("unterminated txn block (missing 'end')"),
            std::string::npos)
      << bytes;
  EXPECT_EQ(service.errors(), 1);
}

TEST(SafetyService, ExportStatsPoursServeCounters) {
  SafetyService service(Options());
  int64_t client = service.OpenClient([](const std::string&) {});
  service.Submit(client, "load data/ring3.dlk");
  service.Submit(client, "check");
  service.Drain();

  obs::MetricsRegistry sink;
  service.ExportStats(&sink);
  EXPECT_EQ(sink.CounterValue("serve.commands"), 2);
  EXPECT_EQ(sink.CounterValue("serve.errors"), 0);
  EXPECT_EQ(sink.CounterValue("serve.clients"), 1);
  // Two raw lines were queued, so the peak is at least one and at most two.
  EXPECT_GE(sink.GaugeValue("serve.queue_peak"), 1.0);
  EXPECT_LE(sink.GaugeValue("serve.queue_peak"), 2.0);
}

/// A log stream RunServer can write from its thread while the test reads
/// it from another.
class LockedLog : public std::streambuf {
 public:
  std::string str() const {
    std::lock_guard<std::mutex> lock(mu_);
    return text_;
  }

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) {
      std::lock_guard<std::mutex> lock(mu_);
      text_.push_back(static_cast<char>(c));
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard<std::mutex> lock(mu_);
    text_.append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::string text_;
};

int OpenFds() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

/// One scripted client round trip; returns every response byte.
std::string RoundTrip(int port, const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunClientTrace("127.0.0.1", port, in, out, err), 0)
      << err.str();
  return out.str();
}

TEST(Server, ReapsClosedConnections) {
  SafetyService service(Options());
  LockedLog log_buf;
  std::ostream log(&log_buf);
  ServerOptions server;
  server.port = 0;
  int rc = -1;
  std::thread accept_loop([&] { rc = RunServer(&service, server, log); });

  const std::string announce = "listening on 127.0.0.1:";
  int port = 0;
  for (int i = 0; i < 500 && port == 0; ++i) {
    std::string text = log_buf.str();
    size_t at = text.find(announce);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port = std::atoi(text.c_str() + at + announce.size());
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_GT(port, 0) << log_buf.str();

  // Each connection opens, runs `help`, and closes before the next one.
  // Without reaping, every one of them would leave its fd open.
  const int before = OpenFds();
  for (int i = 0; i < 64; ++i) {
    EXPECT_NE(RoundTrip(port, "help\n").find("\"cmd\": \"help\""),
              std::string::npos);
  }
  // The accept loop reaps between polls (at most 100 ms apart).
  int after = OpenFds();
  for (int i = 0; i < 100 && after > before + 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after = OpenFds();
  }
  EXPECT_LE(after, before + 2);

  RoundTrip(port, "shutdown\n");
  accept_loop.join();
  EXPECT_EQ(rc, 0);
}

}  // namespace
}  // namespace serve
}  // namespace dislock
