// dislock_serve — the session protocol as a long-lived service.
//
//   dislock_serve [--port N] [--threads N] [--cache]
//                 [--cache-dir=PATH] [--load-root DIR] [--trace=FILE]
//                 [--metrics[=FILE]]
//     Listen on 127.0.0.1:N (default 4400; 0 = ephemeral, announced on
//     startup as "dislock_serve: listening on 127.0.0.1:PORT") and serve
//     the JSON-lines session protocol to any number of concurrent
//     clients. A client's `shutdown` command stops the server; `quit`
//     closes just that client.
//
//   dislock_serve --client HOST:PORT [script.dls]
//     Scripted client: send every line of the script (stdin when
//     omitted), print every response, exit when the server closes the
//     connection. CI diffs this output against session goldens.
//
// The wire protocol is exactly `dislock session --json`: one JSON object
// per response line, same keys, same bytes — a served trace is diffable
// against the REPL goldens, at any --threads value.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/analyzer.h"
#include "cache/verdict_store.h"
#include "core/stats_export.h"
#include "obs/observability.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/flags.h"

namespace dislock {
namespace {

void FlushObservability(const obs::Observability& bundle) {
  std::string error;
  if (!bundle.Flush(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
}

int Usage() {
  std::string help = CommonFlagsHelp(kThreadsFlag | kCacheFlag | kObsFlags |
                                     kPortFlag | kCacheDirFlag);
  std::fprintf(stderr,
               "usage: dislock_serve [--port N] [--threads N]\n"
               "                     [--cache] [--cache-dir=PATH]\n"
               "                     [--load-root DIR]\n"
               "                     [--trace=FILE] [--metrics[=FILE]]\n"
               "         (serve the JSON-lines session protocol on\n"
               "          127.0.0.1; a client's `shutdown` command stops\n"
               "          the server, `quit` closes one client)\n"
               "       dislock_serve --client HOST:PORT [script.dls]\n"
               "         (send the script — stdin when omitted — and print\n"
               "          every response until the server closes)\n"
               "%s",
               help.c_str());
  return 2;
}

bool SplitHostPort(const std::string& spec, std::string* host, int* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    return false;
  }
  *host = spec.substr(0, colon);
  *port = std::atoi(spec.c_str() + colon + 1);
  return *port > 0 && *port <= 65535;
}

int Main(int argc, char** argv) {
  CommonFlags common;
  std::string load_root;
  const char* client_spec = nullptr;
  const char* script = nullptr;
  constexpr unsigned kAccepted = kThreadsFlag | kCacheFlag | kObsFlags |
                                 kPortFlag | kCacheDirFlag;
  for (int i = 1; i < argc; ++i) {
    std::string error;
    switch (ParseCommonFlag(argc, argv, i, kAccepted, &common, &error)) {
      case FlagParse::kConsumedTwo:
        ++i;
        [[fallthrough]];
      case FlagParse::kConsumedOne:
        continue;
      case FlagParse::kError:
        ReportBadFlag("dislock_serve", error);
        return 2;
      case FlagParse::kNotCommon:
        break;
    }
    if (std::strcmp(argv[i], "--client") == 0 && i + 1 < argc) {
      client_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--load-root") == 0 && i + 1 < argc) {
      load_root = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return Usage();
    } else if (argv[i][0] != '-' && script == nullptr) {
      script = argv[i];
    } else {
      ReportUnknownArgument("dislock_serve", argv[i]);
      return Usage();
    }
  }

  if (client_spec != nullptr) {
    std::string host;
    int port = 0;
    if (!SplitHostPort(client_spec, &host, &port)) {
      ReportBadFlag("dislock_serve", "--client requires HOST:PORT");
      return 2;
    }
    if (script != nullptr) {
      std::ifstream file(script);
      if (!file) {
        std::fprintf(stderr, "dislock_serve: cannot open %s\n", script);
        return 1;
      }
      return serve::RunClientTrace(host, port, file, std::cout, std::cerr);
    }
    return serve::RunClientTrace(host, port, std::cin, std::cout, std::cerr);
  }

  if (script != nullptr) {
    ReportUnknownArgument("dislock_serve", script);
    return Usage();
  }
  if (common.port < 0 || common.port > 65535) {
    ReportBadFlag("dislock_serve", "--port requires 0..65535");
    return 2;
  }

  obs::Observability bundle(common.trace_path, common.metrics,
                            common.metrics_path);
  // One persistent store for the server's lifetime: the engine borrows it
  // through the config, and its new verdicts land in one pending buffer,
  // flushed once at shutdown.
  cache::VerdictStore store;
  const std::string cache_dir = EffectiveCacheDir(common);
  if (!cache_dir.empty()) {
    std::string error;
    if (!store.Open(cache_dir, &error)) {
      std::fprintf(stderr,
                   "dislock_serve: cannot open cache dir %s (%s); "
                   "continuing without a persistent cache\n",
                   cache_dir.c_str(), error.c_str());
    }
  }
  serve::ServiceOptions options;
  options.session.json = true;
  options.session.load_root = load_root;
  options.session.config.num_threads = common.num_threads;
  options.session.config.enable_cache = common.cache;
  options.session.config.store = store.is_open() ? &store : nullptr;
  options.session.config.trace = bundle.trace();
  options.session.config.stats = bundle.metrics();
  options.session.analyze = MakeSessionAnalyzer();

  serve::SafetyService service(options);
  serve::ServerOptions server;
  server.port = common.port;
  int rc = serve::RunServer(&service, server, std::cerr);
  if (store.is_open()) {
    store.Flush();
    ExportStoreStats(store, bundle.metrics());
  }
  if (bundle.metrics() != nullptr) service.ExportStats(bundle.metrics());
  FlushObservability(bundle);
  return rc;
}

}  // namespace
}  // namespace dislock

int main(int argc, char** argv) { return dislock::Main(argc, argv); }
