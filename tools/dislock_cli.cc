// The dislock command-line analyzer.
//
//   dislock analyze <system.dlk> [--json|--sarif] [--passes a,b] [--no-deadlock]
//                                   multi-pass static analysis: per-rule
//                                   diagnostics (DL001-DL206) + deadlock;
//                                   --repair adds verified repair synthesis
//   dislock fix <system.dlk> [--dry-run] [--json]
//                                   apply the cheapest verified repair in
//                                   place (--dry-run prints it instead)
//   dislock rules [--json|--markdown]
//                                   print the analyzer rule catalog
//   dislock passes                  list the registered analysis passes
//   dislock simulate <system.dlk> [runs]
//                                   Monte-Carlo execution statistics
//   dislock reduce <formula.cnf>    Theorem 3: decide SAT via locking safety
//   dislock session [script] [--json] [--threads N] [--cache]
//                                   interactive / scripted incremental
//                                   re-analysis (load/add/remove/replace/
//                                   check/analyze) backed by the delta engine
//   dislock gen <family> [--param k=16] [--seed N] [--out=FILE]
//                                   emit a deterministic .dlt workload trace
//                                   for a registered family (src/gen/);
//                                   `gen --list` prints the catalog
//   dislock replay <trace.dlt> [--threads N] [--verify]
//                                   drive a .dlt trace through the
//                                   incremental engine; --verify gates
//                                   byte-identical responses across threads
//                                   and transports; --endpoint HOST:PORT
//                                   replays against a live dislock_serve
//   dislock example                 print a sample system file
//
// `analyze` and `session` also take the shared observability flags
// --trace=FILE (Chrome trace_event timeline; see docs/observability.md)
// and --metrics[=FILE] (flat metrics JSON, default stderr), plus
// --cache-dir=PATH (persistent pair-verdict store shared across runs and
// processes; see docs/caching.md). None of them ever changes report
// output.
//
// System files use the dislock text format (see src/txn/text_format.h).
// `analyze` exits 0 when the analysis ran (regardless of findings), 1 on
// input errors, 2 on usage errors; pass --fail-on=note|warning|error to
// exit 3 when any diagnostic at or above that severity was reported
// (--exit-error is the historical spelling of --fail-on=error).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/repair/engine.h"
#include "cache/verdict_store.h"
#include "core/certificate.h"
#include "core/deadlock.h"
#include "core/multi.h"
#include "core/report.h"
#include "core/incremental/session.h"
#include "core/safety.h"
#include "core/stats_export.h"
#include "core/wire_keys.h"
#include "gen/family.h"
#include "gen/replay.h"
#include "gen/trace.h"
#include "obs/observability.h"
#include "serve/server.h"
#include "sat/normalize.h"
#include "sat/reduction.h"
#include "sat/solver.h"
#include "sim/scheduler.h"
#include "txn/text_format.h"
#include "util/flags.h"

namespace dislock {
namespace {

constexpr char kSample[] = R"(# Two transactions over a two-site database.
sites 2
entity x 0
entity y 1

txn T1
  lock x      # step 0
  update x    # step 1
  unlock x    # step 2
  lock y      # step 3
  update y    # step 4
  unlock y    # step 5
  edge 2 3    # x section before y section
end

txn T2
  lock y
  update y
  unlock y
  lock x
  update x
  unlock x
  edge 2 3    # y section before x section
end
)";

Result<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound(std::string("cannot open ") + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct AnalyzeArgs {
  const char* path = nullptr;
  bool deadlock = true;
  bool repair = false;
  /// Exit 3 when a diagnostic at or above this severity was emitted;
  /// unset (the default) preserves the historical always-0 behavior.
  std::optional<DiagSeverity> fail_on;
  std::vector<std::string> passes;  // empty = all registered
  CommonFlags common;  // --threads/--cache/--format/--trace/--metrics
};

/// Exit code for --fail-on: counts the diagnostics at or above the
/// threshold severity (error ⊇ warning ⊇ note in strictness order).
int FailOnExitCode(const AnalysisResult& result,
                   const std::optional<DiagSeverity>& fail_on) {
  if (!fail_on.has_value()) return 0;
  int64_t over = result.Count(DiagSeverity::kError);
  if (*fail_on != DiagSeverity::kError) {
    over += result.Count(DiagSeverity::kWarning);
  }
  if (*fail_on == DiagSeverity::kNote) {
    over += result.Count(DiagSeverity::kNote);
  }
  return over > 0 ? 3 : 0;
}

/// Line count of the analyzed file, for the SARIF whole-file fix region.
int CountLines(const std::string& text) {
  int lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  if (!text.empty() && text.back() != '\n') ++lines;
  return lines > 0 ? lines : 1;
}

// Writes the trace/metrics files a run opted into; a failure to write them
// is reported but never changes the exit status of the analysis itself.
void FlushObservability(const obs::Observability& bundle) {
  std::string error;
  if (!bundle.Flush(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
}

// Opens the persistent verdict store a run asked for (--cache-dir or
// DISLOCK_CACHE_DIR). A directory that cannot be opened is reported and
// the run continues without a store — persistence is an accelerator, never
// a prerequisite, and never changes a verdict either way.
void OpenStoreIfRequested(const CommonFlags& common,
                          cache::VerdictStore* store) {
  const std::string dir = EffectiveCacheDir(common);
  if (dir.empty()) return;
  std::string error;
  if (!store->Open(dir, &error)) {
    std::fprintf(stderr,
                 "dislock: cannot open cache dir %s (%s); "
                 "continuing without a persistent cache\n",
                 dir.c_str(), error.c_str());
  }
}

// Owner-exports-once counterpart for the store: flush the run's new
// verdicts to disk, then pour the store counters into the metrics sink.
// Call before FlushObservability so records_flushed lands in the file.
void FinishStore(cache::VerdictStore* store, obs::StatsSink* sink) {
  if (!store->is_open()) return;
  store->Flush();
  ExportStoreStats(*store, sink);
}

int Analyze(const AnalyzeArgs& args) {
  auto text = ReadFile(args.path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  auto parsed = ParseSystemText(*text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const TransactionSystem& system = *parsed->system;

  PassManager manager;
  if (args.passes.empty()) {
    manager.AddAllPasses();
  } else {
    for (const std::string& name : args.passes) {
      Status st = manager.Add(name);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 2;
      }
    }
  }
  obs::Observability bundle(args.common.trace_path, args.common.metrics,
                            args.common.metrics_path);
  cache::VerdictStore store;
  OpenStoreIfRequested(args.common, &store);
  AnalysisOptions options;
  options.num_threads = args.common.num_threads;
  options.enable_cache = args.common.cache;
  options.store = store.is_open() ? &store : nullptr;
  options.trace = bundle.trace();
  options.stats = bundle.metrics();
  // Flush order on every exit path: store first (so records_flushed lands
  // in the metrics block), then the observability files.
  auto finish = [&] {
    FinishStore(&store, bundle.metrics());
    FlushObservability(bundle);
  };
  AnalysisResult result = manager.Run(system, options);
  if (args.repair) {
    RepairOptions repair_options;
    repair_options.engine = options;
    result.repair = SynthesizeRepairs(system, repair_options);
    // The synthesis engine never exports (owner-exports-once); this run
    // owns the report, so it pours the repair counters here.
    ExportRepairStats(*result.repair, bundle.metrics());
  }
  const int rc = FailOnExitCode(result, args.fail_on);
  // The deadlock block renders the `deadlock` pass's own search; it is
  // absent under --no-deadlock or when that pass did not run.
  const Result<DeadlockReport>* deadlock =
      args.deadlock && result.deadlock.has_value() ? &*result.deadlock
                                                   : nullptr;

  if (args.common.format == "sarif") {
    SarifArtifact artifact;
    artifact.uri = args.path;
    artifact.end_line = CountLines(*text);
    std::printf("%s\n", DiagnosticsToSarif(result, system, artifact).c_str());
    finish();
    return rc;
  }

  if (args.common.format == "json") {
    std::printf("{\"%s\": %d, \"transactions\": %d, \"entities\": %d, "
                "\"sites\": %d, \"steps\": %d, \"analysis\": %s",
                wire::kSchemaVersionKey, wire::kSchemaVersion,
                system.NumTransactions(), parsed->db->NumEntities(),
                parsed->db->NumSites(), system.TotalSteps(),
                DiagnosticsToJson(result, system).c_str());
    if (deadlock != nullptr && deadlock->ok()) {
      std::printf(", \"deadlock\": %s",
                  DeadlockReportToJson(**deadlock, system).c_str());
    }
    std::printf("}\n");
    finish();
    return rc;
  }

  std::printf("%d transactions, %d entities over %d sites, %d steps\n",
              system.NumTransactions(), parsed->db->NumEntities(),
              parsed->db->NumSites(), system.TotalSteps());
  std::printf("%s", DiagnosticsToText(result, system).c_str());

  if (deadlock != nullptr) {
    const Result<DeadlockReport>& dl = *deadlock;
    if (!dl.ok()) {
      std::printf("deadlock: %s\n", dl.status().ToString().c_str());
    } else if (dl->deadlock_free) {
      std::printf("deadlock: none reachable (%lld states explored)\n",
                  static_cast<long long>(dl->states_explored));
    } else {
      std::printf("deadlock: reachable after prefix %s\n",
                  dl->dead_prefix->ToString(system).c_str());
    }
  }
  finish();
  return rc;
}

int ListPasses() {
  for (const std::string& name : RegisteredAnalysisPasses()) {
    auto pass = MakeAnalysisPass(name);
    std::printf("%-14s %s\n", name.c_str(),
                pass.ok() ? (*pass)->description() : "?");
  }
  return 0;
}

int Rules(int argc, char** argv) {
  std::string mode = "text";
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      mode = "json";
    } else if (std::strcmp(argv[i], "--markdown") == 0) {
      mode = "markdown";
    } else {
      ReportUnknownArgument("dislock", argv[i]);
      return 2;
    }
  }
  if (mode == "json") {
    std::printf("%s\n", RulesToJson().c_str());
  } else if (mode == "markdown") {
    std::printf("%s", RulesToMarkdown().c_str());
  } else {
    std::printf("%s", RulesToText().c_str());
  }
  return 0;
}

struct FixArgs {
  const char* path = nullptr;
  bool dry_run = false;
  bool json = false;
  CommonFlags common;
};

// `dislock fix`: synthesize verified repairs and apply the cheapest one in
// place (or print it with --dry-run). Exits 0 when nothing needed fixing or
// a repair was applied, 1 when the system is broken but no verified repair
// was found (or on input errors), 2 on usage errors.
int Fix(const FixArgs& args) {
  auto text = ReadFile(args.path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  auto parsed = ParseSystemText(*text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const TransactionSystem& system = *parsed->system;

  obs::Observability bundle(args.common.trace_path, args.common.metrics,
                            args.common.metrics_path);
  RepairOptions options;
  options.engine.num_threads = args.common.num_threads;
  options.engine.trace = bundle.trace();
  RepairReport report = SynthesizeRepairs(system, options);
  ExportRepairStats(report, bundle.metrics());

  if (args.json) {
    std::printf("{\"%s\": %d, \"repair\": %s}\n", wire::kSchemaVersionKey,
                wire::kSchemaVersion,
                RepairReportToJson(report, system).c_str());
  }
  if (!report.attempted) {
    if (!args.json) {
      std::printf("nothing to fix: %s is already safe and deadlock-free\n",
                  args.path);
    }
    FlushObservability(bundle);
    return 0;
  }
  if (report.repairs.empty()) {
    std::fprintf(stderr,
                 "no verified repair found for %s (%lld candidates tried)\n",
                 args.path,
                 static_cast<long long>(report.candidates_tried));
    FlushObservability(bundle);
    return 1;
  }

  const VerifiedRepair& top = report.repairs.front();
  // Round-trip guarantee: the repaired text must parse back to a valid
  // system before it is allowed to replace the user's file.
  auto reparsed = ParseSystemText(top.repaired_text);
  if (!reparsed.ok()) {
    std::fprintf(stderr, "internal error: repaired system does not parse: %s\n",
                 reparsed.status().ToString().c_str());
    FlushObservability(bundle);
    return 1;
  }
  if (!args.json) {
    std::printf("repair (%s, cost %d): %s\n",
                RepairEditKindName(top.edit.kind), top.edit.cost,
                top.edit.description.c_str());
    std::printf("verified after repair: safety %s, deadlock-free\n",
                SafetyVerdictName(top.safety_after));
  }
  if (args.dry_run) {
    if (!args.json) {
      std::printf("--dry-run: repaired system follows\n%s",
                  top.repaired_text.c_str());
    }
    FlushObservability(bundle);
    return 0;
  }
  std::ofstream out(args.path, std::ios::trunc);
  if (!out || !(out << top.repaired_text) || !out.flush()) {
    std::fprintf(stderr, "cannot write %s\n", args.path);
    FlushObservability(bundle);
    return 1;
  }
  if (!args.json) {
    std::printf("wrote %s\n", args.path);
  }
  FlushObservability(bundle);
  return 0;
}

int RunFixCommand(int argc, char** argv) {
  FixArgs args;
  constexpr unsigned kAccepted = kThreadsFlag | kObsFlags;
  for (int i = 2; i < argc; ++i) {
    std::string error;
    switch (ParseCommonFlag(argc, argv, i, kAccepted, &args.common, &error)) {
      case FlagParse::kConsumedTwo:
        ++i;
        [[fallthrough]];
      case FlagParse::kConsumedOne:
        continue;
      case FlagParse::kError:
        ReportBadFlag("dislock", error);
        return 2;
      case FlagParse::kNotCommon:
        break;
    }
    if (std::strcmp(argv[i], "--dry-run") == 0) {
      args.dry_run = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      args.json = true;
    } else if (argv[i][0] != '-' && args.path == nullptr) {
      args.path = argv[i];
    } else {
      ReportUnknownArgument("dislock", argv[i]);
      return 2;
    }
  }
  if (args.path == nullptr) return 2;
  return Fix(args);
}

int Simulate(const char* path, int64_t runs) {
  auto text = ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  auto parsed = ParseSystemText(*text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  Rng rng(0xD15C0);
  MonteCarloStats stats = SampleSafety(*parsed->system, runs, &rng,
                                       /*keep_going=*/true);
  std::printf("runs: %lld\ncompleted: %lld\ndeadlocked: %lld\n"
              "non-serializable: %lld\n",
              static_cast<long long>(stats.runs),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.deadlocked),
              static_cast<long long>(stats.non_serializable));
  if (stats.witness.has_value()) {
    std::printf("witness: %s\n",
                stats.witness->ToString(*parsed->system).c_str());
  }
  // With abort-and-restart recovery, every run commits; report abort rates.
  int64_t aborts = 0;
  int64_t committed = 0;
  for (int64_t r = 0; r < runs / 10 + 1; ++r) {
    RecoveryRunResult run = SimulateRunWithRecovery(*parsed->system, &rng);
    if (!run.gave_up) ++committed;
    aborts += run.aborts;
  }
  std::printf("with recovery: %lld/%lld committed, %lld aborts\n",
              static_cast<long long>(committed),
              static_cast<long long>(runs / 10 + 1),
              static_cast<long long>(aborts));
  return 0;
}

int Reduce(const char* path) {
  auto text = ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  auto formula = ParseDimacs(*text);
  if (!formula.ok()) {
    std::fprintf(stderr, "%s\n", formula.status().ToString().c_str());
    return 1;
  }
  auto restricted = NormalizeToRestricted(*formula);
  if (!restricted.ok()) {
    std::fprintf(stderr, "%s\n", restricted.status().ToString().c_str());
    return 1;
  }
  if (restricted->trivially_sat || restricted->trivially_unsat) {
    std::printf("preprocessing decided: %s\n",
                restricted->trivially_sat ? "SATISFIABLE" : "UNSATISFIABLE");
    return 0;
  }
  auto red = ReduceCnfToTransactions(restricted->cnf);
  if (!red.ok()) {
    std::fprintf(stderr, "%s\n", red.status().ToString().c_str());
    return 1;
  }
  std::printf("reduced to %d entities / %d steps over %d sites\n",
              red->db->NumEntities(), red->system->TotalSteps(),
              red->db->NumSites());
  SafetyOptions options;
  options.max_extension_pairs = 0;
  PairSafetyReport report = AnalyzePairSafety(red->system->txn(0),
                                              red->system->txn(1), options);
  std::printf("safety: %s  =>  formula is %s\n",
              SafetyVerdictName(report.verdict),
              report.verdict == SafetyVerdict::kUnsafe ? "SATISFIABLE"
              : report.verdict == SafetyVerdict::kSafe ? "UNSATISFIABLE"
                                                       : "UNDECIDED");
  auto dpll = SolveSat(*formula);
  if (dpll.ok()) {
    std::printf("DPLL cross-check: %s\n",
                dpll->satisfiable ? "SATISFIABLE" : "UNSATISFIABLE");
  }
  return 0;
}

int RunSessionCommand(int argc, char** argv) {
  SessionOptions options;
  CommonFlags common;
  const char* script = nullptr;
  constexpr unsigned kAccepted =
      kThreadsFlag | kCacheFlag | kObsFlags | kCacheDirFlag;
  for (int i = 2; i < argc; ++i) {
    std::string error;
    switch (ParseCommonFlag(argc, argv, i, kAccepted, &common, &error)) {
      case FlagParse::kConsumedTwo:
        ++i;
        [[fallthrough]];
      case FlagParse::kConsumedOne:
        continue;
      case FlagParse::kError:
        ReportBadFlag("dislock", error);
        return 2;
      case FlagParse::kNotCommon:
        break;
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      options.json = true;
    } else if (std::strcmp(argv[i], "--load-root") == 0 && i + 1 < argc) {
      options.load_root = argv[++i];
    } else if (argv[i][0] != '-' && script == nullptr) {
      script = argv[i];
    } else {
      ReportUnknownArgument("dislock", argv[i]);
      return 2;
    }
  }
  obs::Observability bundle(common.trace_path, common.metrics,
                            common.metrics_path);
  cache::VerdictStore store;
  OpenStoreIfRequested(common, &store);
  options.config.num_threads = common.num_threads;
  options.config.enable_cache = common.cache;
  options.config.store = store.is_open() ? &store : nullptr;
  options.config.trace = bundle.trace();
  options.config.stats = bundle.metrics();
  options.analyze = MakeSessionAnalyzer();
  int failed;
  if (script != nullptr) {
    std::ifstream file(script);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", script);
      return 1;
    }
    failed = RunSession(file, std::cout, options);
  } else {
    failed = RunSession(std::cin, std::cout, options);
  }
  FinishStore(&store, bundle.metrics());
  FlushObservability(bundle);
  return failed == 0 ? 0 : 1;
}

// Writes `text` to --out when given, stdout otherwise. A file that cannot
// be written is an input error (exit 1), matching `fix`.
int WriteTextOutput(const std::string& text, const CommonFlags& common) {
  if (common.out.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  std::ofstream out(common.out, std::ios::trunc);
  if (!out || !(out << text) || !out.flush()) {
    std::fprintf(stderr, "cannot write %s\n", common.out.c_str());
    return 1;
  }
  return 0;
}

// `dislock gen`: emit one workload family's deterministic .dlt trace (or
// the self-describing catalog with --list). Exits 0 on success, 1 on
// generation/IO errors, 2 on usage errors.
int RunGenCommand(int argc, char** argv) {
  CommonFlags common;
  const char* family = nullptr;
  bool list = false;
  bool json = false;
  gen::ParamMap overrides;
  constexpr unsigned kAccepted = kSeedFlag | kOutFlag;
  auto add_override = [&overrides](const char* text) {
    auto parsed = gen::ParseParamOverride(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return false;
    }
    overrides[parsed->first] = parsed->second;
    return true;
  };
  for (int i = 2; i < argc; ++i) {
    std::string error;
    switch (ParseCommonFlag(argc, argv, i, kAccepted, &common, &error)) {
      case FlagParse::kConsumedTwo:
        ++i;
        [[fallthrough]];
      case FlagParse::kConsumedOne:
        continue;
      case FlagParse::kError:
        ReportBadFlag("dislock", error);
        return 2;
      case FlagParse::kNotCommon:
        break;
    }
    if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--param") == 0 && i + 1 < argc) {
      if (!add_override(argv[++i])) return 2;
    } else if (std::strncmp(argv[i], "--param=", 8) == 0) {
      if (!add_override(argv[i] + 8)) return 2;
    } else if (argv[i][0] != '-' && family == nullptr) {
      family = argv[i];
    } else {
      ReportUnknownArgument("dislock", argv[i]);
      return 2;
    }
  }
  if (list) {
    return WriteTextOutput(
        json ? gen::FamilyCatalogToJson() : gen::FamilyCatalogToText(),
        common);
  }
  if (family == nullptr) return 2;
  auto trace = gen::GenerateTrace(family, overrides, common.seed);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }
  return WriteTextOutput(trace->Serialize(), common);
}

// Splits --endpoint HOST:PORT; false (with a stderr line) when malformed.
bool ParseEndpoint(const std::string& endpoint, std::string* host,
                   int* port) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    std::fprintf(stderr, "dislock: --endpoint wants HOST:PORT, got '%s'\n",
                 endpoint.c_str());
    return false;
  }
  *host = endpoint.substr(0, colon);
  *port = std::atoi(endpoint.c_str() + colon + 1);
  if (*port <= 0 || *port > 65535) {
    std::fprintf(stderr, "dislock: bad --endpoint port in '%s'\n",
                 endpoint.c_str());
    return false;
  }
  return true;
}

// `dislock replay`: drive a committed .dlt trace through the incremental
// engine. Default: one in-process SessionCore replay, responses to stdout
// (or --out). --verify: the byte-identity gate — every response from the
// serve-style sequencer at {1,4} threads and from the direct replay at 4
// threads must match the 1-thread direct replay byte for byte.
// --endpoint HOST:PORT: feed the records to a
// live dislock_serve over TCP instead. Exits 0 on a clean replay, 1 on
// input errors / failed commands / a verify divergence, 2 on usage errors.
int RunReplayCommand(int argc, char** argv) {
  CommonFlags common;
  const char* path = nullptr;
  bool verify = false;
  constexpr unsigned kAccepted = kThreadsFlag | kCacheFlag | kCacheDirFlag |
                                 kObsFlags | kEndpointFlag | kOutFlag;
  for (int i = 2; i < argc; ++i) {
    std::string error;
    switch (ParseCommonFlag(argc, argv, i, kAccepted, &common, &error)) {
      case FlagParse::kConsumedTwo:
        ++i;
        [[fallthrough]];
      case FlagParse::kConsumedOne:
        continue;
      case FlagParse::kError:
        ReportBadFlag("dislock", error);
        return 2;
      case FlagParse::kNotCommon:
        break;
    }
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (argv[i][0] != '-' && path == nullptr) {
      path = argv[i];
    } else {
      ReportUnknownArgument("dislock", argv[i]);
      return 2;
    }
  }
  if (path == nullptr) return 2;
  auto text = ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  auto trace = gen::ParseTrace(*text);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }

  if (verify) {
    gen::VerifyResult result = gen::VerifyReplay(*trace);
    for (const gen::VerifyCell& cell : result.cells) {
      std::fprintf(stderr, "%s threads=%d: %s (%d failed commands)\n",
                   cell.transport.c_str(), cell.threads,
                   cell.identical ? "responses identical" : "DIVERGED",
                   cell.errors);
    }
    std::fprintf(stderr, "verify: %s (%s, seed %llu, %lld records)\n",
                 result.ok ? "OK" : "FAILED", trace->header.family.c_str(),
                 static_cast<unsigned long long>(trace->header.seed),
                 static_cast<long long>(trace->header.records));
    return result.ok ? 0 : 1;
  }

  if (!common.endpoint.empty()) {
    std::string host;
    int port = 0;
    if (!ParseEndpoint(common.endpoint, &host, &port)) return 2;
    std::ostringstream script;
    for (const std::string& record : trace->records) {
      script << record << "\n";
    }
    std::istringstream in(script.str());
    std::ostringstream captured;
    if (serve::RunClientTrace(host, port, in, captured, std::cerr) != 0) {
      return 1;
    }
    return WriteTextOutput(captured.str(), common);
  }

  obs::Observability bundle(common.trace_path, common.metrics,
                            common.metrics_path);
  cache::VerdictStore store;
  OpenStoreIfRequested(common, &store);
  gen::ReplayOptions options;
  options.threads = common.num_threads;
  options.config.enable_cache = common.cache;
  options.config.store = store.is_open() ? &store : nullptr;
  options.config.trace = bundle.trace();
  options.config.stats = bundle.metrics();
  gen::ReplayResult result = gen::ReplayDirect(*trace, options);
  int rc = WriteTextOutput(result.output, common);
  std::fprintf(stderr, "replayed %lld commands, %lld checks, %d errors\n",
               static_cast<long long>(result.commands),
               static_cast<long long>(result.checks), result.errors);
  FinishStore(&store, bundle.metrics());
  FlushObservability(bundle);
  if (rc != 0) return rc;
  return result.errors == 0 ? 0 : 1;
}

int Usage() {
  std::string analyze_help = CommonFlagsHelp(
      kThreadsFlag | kCacheFlag | kFormatFlag | kObsFlags | kCacheDirFlag);
  std::string session_help = CommonFlagsHelp(
      kThreadsFlag | kCacheFlag | kObsFlags | kCacheDirFlag);
  std::string gen_help = CommonFlagsHelp(kSeedFlag | kOutFlag);
  std::string replay_help =
      CommonFlagsHelp(kThreadsFlag | kCacheFlag | kCacheDirFlag | kObsFlags |
                      kEndpointFlag | kOutFlag);
  std::fprintf(stderr,
               "usage: dislock analyze <system.dlk>\n"
               "                       [--passes a,b,c] [--no-deadlock]\n"
               "                       [--repair] [--exit-error]\n"
               "                       [--fail-on=note|warning|error]\n"
               "%s"
               "       dislock fix <system.dlk> [--dry-run] [--json]\n"
               "         (apply the cheapest verified repair in place;\n"
               "          --dry-run prints the repaired system instead)\n"
               "       dislock rules [--json|--markdown]\n"
               "       dislock passes\n"
               "       dislock simulate <system.dlk> [runs]\n"
               "       dislock reduce <formula.cnf>\n"
               "       dislock session [script.dls] [--json]\n"
               "                       [--load-root DIR]\n"
               "         (incremental re-analysis REPL backed by the delta\n"
               "          engine; reads stdin when no script is given;\n"
               "          --json emits one JSON object per command)\n"
               "%s"
               "       dislock gen <family> [--param NAME=VALUE ...]\n"
               "         (emit the family's deterministic .dlt trace —\n"
               "          a schema-versioned header line plus one session\n"
               "          JSON envelope per record; `dislock gen --list\n"
               "          [--json]` prints the self-describing catalog)\n"
               "%s"
               "       dislock replay <trace.dlt> [--verify]\n"
               "         (drive a .dlt trace through the incremental\n"
               "          engine and print the session responses; --verify\n"
               "          replays at {1,4} threads, direct and through the\n"
               "          service, and gates byte-identical responses)\n"
               "%s"
               "       dislock example\n",
               analyze_help.c_str(), session_help.c_str(), gen_help.c_str(),
               replay_help.c_str());
  return 2;
}

std::vector<std::string> SplitCommas(const char* s) {
  std::vector<std::string> out;
  std::string current;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current += *p;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

}  // namespace
}  // namespace dislock

int main(int argc, char** argv) {
  using namespace dislock;
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "example") == 0) {
    std::printf("%s", kSample);
    return 0;
  }
  if (std::strcmp(argv[1], "analyze") == 0 && argc >= 3) {
    AnalyzeArgs args;
    args.path = argv[2];
    constexpr unsigned kAccepted =
        kThreadsFlag | kCacheFlag | kFormatFlag | kObsFlags | kCacheDirFlag;
    for (int i = 3; i < argc; ++i) {
      std::string error;
      switch (ParseCommonFlag(argc, argv, i, kAccepted, &args.common,
                              &error)) {
        case FlagParse::kConsumedTwo:
          ++i;
          [[fallthrough]];
        case FlagParse::kConsumedOne:
          continue;
        case FlagParse::kError:
          ReportBadFlag("dislock", error);
          return Usage();
        case FlagParse::kNotCommon:
          break;
      }
      if (std::strcmp(argv[i], "--no-deadlock") == 0) {
        args.deadlock = false;
      } else if (std::strcmp(argv[i], "--exit-error") == 0) {
        args.fail_on = DiagSeverity::kError;
      } else if (std::strncmp(argv[i], "--fail-on=", 10) == 0) {
        const char* level = argv[i] + 10;
        if (std::strcmp(level, "note") == 0) {
          args.fail_on = DiagSeverity::kNote;
        } else if (std::strcmp(level, "warning") == 0) {
          args.fail_on = DiagSeverity::kWarning;
        } else if (std::strcmp(level, "error") == 0) {
          args.fail_on = DiagSeverity::kError;
        } else {
          std::fprintf(stderr,
                       "dislock: --fail-on takes note, warning, or error\n");
          return Usage();
        }
      } else if (std::strcmp(argv[i], "--repair") == 0) {
        args.repair = true;
      } else if (std::strcmp(argv[i], "--passes") == 0 && i + 1 < argc) {
        args.passes = SplitCommas(argv[++i]);
      } else {
        ReportUnknownArgument("dislock", argv[i]);
        return Usage();
      }
    }
    return Analyze(args);
  }
  if (std::strcmp(argv[1], "passes") == 0) {
    return ListPasses();
  }
  if (std::strcmp(argv[1], "rules") == 0) {
    int rc = Rules(argc, argv);
    return rc == 2 ? Usage() : rc;
  }
  if (std::strcmp(argv[1], "fix") == 0 && argc >= 3) {
    int rc = RunFixCommand(argc, argv);
    return rc == 2 ? Usage() : rc;
  }
  if (std::strcmp(argv[1], "simulate") == 0 && argc >= 3) {
    int64_t runs = argc >= 4 ? std::atoll(argv[3]) : 10000;
    return Simulate(argv[2], runs);
  }
  if (std::strcmp(argv[1], "reduce") == 0 && argc >= 3) {
    return Reduce(argv[2]);
  }
  if (std::strcmp(argv[1], "session") == 0) {
    int rc = RunSessionCommand(argc, argv);
    return rc == 2 ? Usage() : rc;
  }
  if (std::strcmp(argv[1], "gen") == 0) {
    int rc = RunGenCommand(argc, argv);
    return rc == 2 ? Usage() : rc;
  }
  if (std::strcmp(argv[1], "replay") == 0) {
    int rc = RunReplayCommand(argc, argv);
    return rc == 2 ? Usage() : rc;
  }
  return Usage();
}
