#include "util/flags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dislock {

namespace {

// Matches "--name VALUE" and "--name=VALUE". Returns nullptr when argv[i]
// is not `name`; on a match stores the value and whether argv[i+1] was
// consumed. A bare "--name" with no value in either spelling returns the
// sentinel kMissing.
const char kMissing[] = "";

const char* FlagValue(int argc, char** argv, int i, const char* name,
                      bool* consumed_next) {
  *consumed_next = false;
  size_t len = std::strlen(name);
  if (std::strncmp(argv[i], name, len) != 0) return nullptr;
  if (argv[i][len] == '=') return argv[i] + len + 1;
  if (argv[i][len] != '\0') return nullptr;  // e.g. --threadsabc
  if (i + 1 >= argc) return kMissing;
  *consumed_next = true;
  return argv[i + 1];
}

}  // namespace

FlagParse ParseCommonFlag(int argc, char** argv, int i, unsigned accepted,
                          CommonFlags* flags, std::string* error) {
  const char* arg = argv[i];
  bool two = false;

  if ((accepted & kThreadsFlag) != 0) {
    if (const char* v = FlagValue(argc, argv, i, "--threads", &two)) {
      if (v == kMissing) {
        if (error != nullptr) *error = "--threads requires a value";
        return FlagParse::kError;
      }
      flags->num_threads = std::atoi(v);
      return two ? FlagParse::kConsumedTwo : FlagParse::kConsumedOne;
    }
  }

  if ((accepted & kCacheFlag) != 0 && std::strcmp(arg, "--cache") == 0) {
    flags->cache = true;
    return FlagParse::kConsumedOne;
  }

  if ((accepted & kFormatFlag) != 0) {
    if (std::strcmp(arg, "--json") == 0) {
      flags->format = "json";
      return FlagParse::kConsumedOne;
    }
    if (std::strcmp(arg, "--sarif") == 0) {
      flags->format = "sarif";
      return FlagParse::kConsumedOne;
    }
    if (const char* v = FlagValue(argc, argv, i, "--format", &two)) {
      if (v != kMissing && (std::strcmp(v, "text") == 0 ||
                            std::strcmp(v, "json") == 0 ||
                            std::strcmp(v, "sarif") == 0)) {
        flags->format = v;
        return two ? FlagParse::kConsumedTwo : FlagParse::kConsumedOne;
      }
      if (error != nullptr) {
        *error = "--format requires text, json, or sarif";
      }
      return FlagParse::kError;
    }
  }

  if ((accepted & kTraceFlag) != 0) {
    if (const char* v = FlagValue(argc, argv, i, "--trace", &two)) {
      if (v == kMissing || v[0] == '\0') {
        if (error != nullptr) *error = "--trace requires an output file";
        return FlagParse::kError;
      }
      flags->trace_path = v;
      return two ? FlagParse::kConsumedTwo : FlagParse::kConsumedOne;
    }
  }

  // The three serve flags share the integer-valued shape of --threads; the
  // value contracts (ranges, 0 meaning "per hardware thread") are enforced
  // by the tool after parsing, like --threads.
  if ((accepted & kPortFlag) != 0) {
    if (const char* v = FlagValue(argc, argv, i, "--port", &two)) {
      if (v == kMissing) {
        if (error != nullptr) *error = "--port requires a value";
        return FlagParse::kError;
      }
      flags->port = std::atoi(v);
      return two ? FlagParse::kConsumedTwo : FlagParse::kConsumedOne;
    }
  }

  if ((accepted & kClientsFlag) != 0) {
    if (const char* v = FlagValue(argc, argv, i, "--clients", &two)) {
      if (v == kMissing) {
        if (error != nullptr) *error = "--clients requires a value";
        return FlagParse::kError;
      }
      flags->clients = std::atoi(v);
      return two ? FlagParse::kConsumedTwo : FlagParse::kConsumedOne;
    }
  }

  if ((accepted & kCacheDirFlag) != 0) {
    if (const char* v = FlagValue(argc, argv, i, "--cache-dir", &two)) {
      if (v == kMissing || v[0] == '\0') {
        if (error != nullptr) *error = "--cache-dir requires a directory";
        return FlagParse::kError;
      }
      flags->cache_dir = v;
      return two ? FlagParse::kConsumedTwo : FlagParse::kConsumedOne;
    }
  }

  if ((accepted & kSeedFlag) != 0) {
    if (const char* v = FlagValue(argc, argv, i, "--seed", &two)) {
      if (v == kMissing || v[0] == '\0') {
        if (error != nullptr) *error = "--seed requires a value";
        return FlagParse::kError;
      }
      flags->seed = std::strtoull(v, nullptr, 10);
      return two ? FlagParse::kConsumedTwo : FlagParse::kConsumedOne;
    }
  }

  if ((accepted & kOutFlag) != 0) {
    if (const char* v = FlagValue(argc, argv, i, "--out", &two)) {
      if (v == kMissing || v[0] == '\0') {
        if (error != nullptr) *error = "--out requires an output file";
        return FlagParse::kError;
      }
      flags->out = v;
      return two ? FlagParse::kConsumedTwo : FlagParse::kConsumedOne;
    }
  }

  if ((accepted & kEndpointFlag) != 0) {
    if (const char* v = FlagValue(argc, argv, i, "--endpoint", &two)) {
      if (v == kMissing || v[0] == '\0') {
        if (error != nullptr) *error = "--endpoint requires HOST:PORT";
        return FlagParse::kError;
      }
      flags->endpoint = v;
      return two ? FlagParse::kConsumedTwo : FlagParse::kConsumedOne;
    }
  }

  if ((accepted & kMetricsFlag) != 0) {
    // --metrics takes an *optional* =FILE, so the space-separated spelling
    // is not supported (it would swallow positionals).
    if (std::strcmp(arg, "--metrics") == 0) {
      flags->metrics = true;
      return FlagParse::kConsumedOne;
    }
    if (std::strncmp(arg, "--metrics=", 10) == 0) {
      flags->metrics = true;
      flags->metrics_path = arg + 10;
      return FlagParse::kConsumedOne;
    }
  }

  return FlagParse::kNotCommon;
}

std::string CommonFlagsHelp(unsigned accepted) {
  std::string out;
  if ((accepted & kThreadsFlag) != 0) {
    out +=
        "  --threads N       safety-engine workers; 1 = serial, 0 = one per\n"
        "                    hardware thread; output is identical at any\n"
        "                    thread count\n";
  }
  if ((accepted & kCacheFlag) != 0) {
    out +=
        "  --cache           memoize pair verdicts by structural fingerprint\n"
        "                    for the run\n";
  }
  if ((accepted & kFormatFlag) != 0) {
    out +=
        "  --format=FMT      text (default), json, or sarif; --json and\n"
        "                    --sarif are aliases\n";
  }
  if ((accepted & kTraceFlag) != 0) {
    out +=
        "  --trace=FILE      write a Chrome trace_event JSON timeline of the\n"
        "                    run to FILE (open in Perfetto or\n"
        "                    chrome://tracing); never changes report output\n";
  }
  if ((accepted & kMetricsFlag) != 0) {
    out +=
        "  --metrics[=FILE]  write the flat metrics JSON block to FILE\n"
        "                    (default: stderr); never changes report output\n";
  }
  if ((accepted & kPortFlag) != 0) {
    out +=
        "  --port N          TCP port to listen on / connect to; 0 asks the\n"
        "                    kernel for an ephemeral port (the server\n"
        "                    announces the real one on startup)\n";
  }
  if ((accepted & kClientsFlag) != 0) {
    out +=
        "  --clients N       simulated concurrent clients for the load\n"
        "                    driver / serve bench\n";
  }
  if ((accepted & kCacheDirFlag) != 0) {
    out +=
        "  --cache-dir=PATH  persist pair verdicts in PATH across runs and\n"
        "                    processes (implies --cache; also read from the\n"
        "                    DISLOCK_CACHE_DIR environment variable; a\n"
        "                    verdict served from disk never changes a\n"
        "                    verdict, see docs/caching.md)\n";
  }
  if ((accepted & kSeedFlag) != 0) {
    out +=
        "  --seed N          workload-generator seed (default 42); the same\n"
        "                    family+params+seed regenerates the same trace\n"
        "                    byte for byte\n";
  }
  if ((accepted & kOutFlag) != 0) {
    out +=
        "  --out=PATH        write the output to PATH instead of stdout\n";
  }
  if ((accepted & kEndpointFlag) != 0) {
    out +=
        "  --endpoint H:P    replay against a live dislock_serve at\n"
        "                    HOST:PORT instead of an in-process engine\n";
  }
  return out;
}

std::string EffectiveCacheDir(const CommonFlags& flags) {
  if (!flags.cache_dir.empty()) return flags.cache_dir;
  const char* env = std::getenv("DISLOCK_CACHE_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

void ReportUnknownArgument(const char* tool, const char* arg) {
  std::fprintf(stderr, "%s: unknown argument '%s'\n", tool, arg);
}

void ReportBadFlag(const char* tool, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", tool, message.c_str());
}

}  // namespace dislock
