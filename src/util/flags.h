#ifndef DISLOCK_UTIL_FLAGS_H_
#define DISLOCK_UTIL_FLAGS_H_

#include <string>

namespace dislock {

// The shared command-line surface of dislock / dislock_stress /
// dislock_bench. Each tool used to hand-roll its own `--threads/--cache/
// --format` loop; this helper is the single copy. A tool declares which
// shared flags it accepts (a CommonFlagSet mask), calls ParseCommonFlag
// per argv slot, handles its tool-specific flags on kNotCommon, and
// rejects anything left over with ReportUnknownArgument + its usage text
// (exit code 2 — the uniform contract across all tools).
struct CommonFlags {
  int num_threads = 1;       // 1 = serial, 0 = one per hardware thread
  bool cache = false;        // engine-owned pair-verdict cache
  std::string format = "text";  // "text" | "json" | "sarif"
  std::string trace_path;    // --trace=FILE; empty = tracing off
  bool metrics = false;      // --metrics[=FILE]
  std::string metrics_path;  // empty or "-" = stderr
  int port = 4400;           // --port N; 0 = ephemeral (serve announces it)
  int clients = 100;         // --clients N; simulated clients (load driver)
  std::string cache_dir;     // --cache-dir=PATH; empty = no persistent store
  unsigned long long seed = 42;  // --seed N; workload-generator seed
  std::string out;           // --out=PATH; empty = stdout
  std::string endpoint;      // --endpoint HOST:PORT; empty = in-process
};

enum CommonFlagSet : unsigned {
  kThreadsFlag = 1u << 0,  // --threads N | --threads=N
  kCacheFlag = 1u << 1,    // --cache
  kFormatFlag = 1u << 2,   // --format[=]text|json|sarif, --json, --sarif
  kTraceFlag = 1u << 3,    // --trace=FILE | --trace FILE
  kMetricsFlag = 1u << 4,  // --metrics[=FILE]
  kPortFlag = 1u << 5,     // --port N | --port=N       (dislock_serve)
  kClientsFlag = 1u << 6,  // --clients N | --clients=N (load driver, bench)
  kCacheDirFlag = 1u << 8,  // --cache-dir PATH | --cache-dir=PATH
  kSeedFlag = 1u << 9,      // --seed N | --seed=N       (gen, replay, bench)
  kOutFlag = 1u << 10,      // --out PATH | --out=PATH   (gen, bench)
  kEndpointFlag = 1u << 11,  // --endpoint HOST:PORT     (replay)
  kObsFlags = kTraceFlag | kMetricsFlag,
  kServeFlags = kPortFlag | kClientsFlag,
};

enum class FlagParse {
  kNotCommon,    // argv[i] is not an accepted shared flag; tool's turn
  kConsumedOne,  // recognized; argv[i] consumed
  kConsumedTwo,  // recognized; argv[i] and argv[i+1] consumed
  kError,        // recognized but malformed (bad value / missing argument)
};

// Tries argv[i] against the shared flags in `accepted`. On kError a
// one-line description is stored in *error (when non-null); print it with
// ReportBadFlag and exit 2.
FlagParse ParseCommonFlag(int argc, char** argv, int i, unsigned accepted,
                          CommonFlags* flags, std::string* error = nullptr);

// Help text for the accepted shared flags, one aligned "  --flag  ..."
// block per flag, for embedding into a tool's usage message. Every tool
// documents a shared flag with exactly these words.
std::string CommonFlagsHelp(unsigned accepted);

// The persistent verdict-store directory a tool should use: the parsed
// --cache-dir when given, else the DISLOCK_CACHE_DIR environment variable,
// else "" (no store). The flag always wins over the environment, so a
// script can pin one run's cache without unsetting the variable.
std::string EffectiveCacheDir(const CommonFlags& flags);

// The uniform rejection lines, printed to stderr:
//   "<tool>: unknown argument '<arg>'"          (ReportUnknownArgument)
//   "<tool>: <message>"                          (ReportBadFlag)
// Callers follow up with their usage text and return 2.
void ReportUnknownArgument(const char* tool, const char* arg);
void ReportBadFlag(const char* tool, const std::string& message);

}  // namespace dislock

#endif  // DISLOCK_UTIL_FLAGS_H_
