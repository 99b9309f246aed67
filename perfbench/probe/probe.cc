// perfbench_probe — times dislock's layers from outside, through their
// public entry points, on the inputs the benchmark generated.
//
//   perfbench_probe analyze <reps> <store_dir> <system.dlk>...
//     One JSON line per system: ParseSystemText, each registered pass
//     run alone through PassManager, DiagnosticsToJson, the standalone
//     AnalyzeDeadlockFreedom and AnalyzeMultiSafety, and
//     VerdictStore::Open/Flush. Each time is the median of <reps>
//     repeats; every repeat that uses the store starts from what
//     <store_dir> holds (see Analyze).
//
//   perfbench_probe session <base.dlk> <requests.jsonl>
//     Feeds the request lines through CommandAssembler into one
//     SessionCore at the serve defaults and prints one JSON line per
//     executed command: its verb, SessionCore::Execute time, the
//     ParseTransactionText time of its block, and the response of every
//     `check`.
//
// Exits 1 on unreadable input, 2 on usage errors.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/emit.h"
#include "analysis/pass.h"
#include "cache/verdict_store.h"
#include "core/deadlock.h"
#include "core/incremental/session_core.h"
#include "core/multi.h"
#include "txn/text_format.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Median wall time of `reps` calls of `fn`, in ms.
double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    fn();
    times.push_back(MsSince(start));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

// A VerdictStore opened on `dir` and never flushed, so `dir` keeps its
// records and every fresh one starts from the same state.
struct FreshStore {
  dislock::cache::VerdictStore store;
  dislock::AnalysisOptions options;
  explicit FreshStore(const std::string& dir) {
    if (!store.Open(dir)) {
      std::fprintf(stderr, "cannot open store %s\n", dir.c_str());
      std::exit(1);
    }
    options.store = &store;
  }
};

// Median time of `reps` calls of `fn`, each on its own FreshStore of
// `dir` opened outside the timed region.
double MedianFreshMs(int reps, const std::string& dir,
                     const std::function<void(FreshStore&)>& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    FreshStore fresh(dir);
    auto start = Clock::now();
    fn(fresh);
    times.push_back(MsSince(start));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// Each timed call starts from the state <store_dir> holds (empty for a
// cold op, warm for a warm one), as the op it stands for does: stores are
// opened fresh on it and never flushed. Flush is timed on a copy
// (<store_dir>.flush), made anew per system.
int Analyze(int reps, const char* store_dir, int nfiles, char** files) {
  namespace fs = std::filesystem;
  const std::string dir = store_dir;
  const std::string flush_dir = dir + ".flush";
  for (int f = 0; f < nfiles; ++f) {
    std::string text;
    if (!ReadFile(files[f], &text)) {
      std::fprintf(stderr, "cannot read %s\n", files[f]);
      return 1;
    }
    auto parsed = dislock::ParseSystemText(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", files[f],
                   parsed.status().ToString().c_str());
      return 1;
    }
    const dislock::TransactionSystem& system = *parsed->system;
    double parse_ms =
        MedianMs(reps, [&] { (void)dislock::ParseSystemText(text); });

    double open_ms = MedianMs(reps, [&] {
      dislock::cache::VerdictStore store;
      (void)store.Open(dir);
    });

    std::string passes;
    for (const std::string& name : dislock::RegisteredAnalysisPasses()) {
      dislock::PassManager one;
      if (!one.Add(name).ok()) return 1;
      double ms = MedianFreshMs(reps, dir, [&](FreshStore& s) {
        (void)one.Run(system, s.options);
      });
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.4f",
                    passes.empty() ? "" : ", ", name.c_str(), ms);
      passes += buf;
    }

    std::error_code ec;
    fs::remove_all(flush_dir, ec);
    fs::copy(dir, flush_dir, fs::copy_options::recursive, ec);
    if (ec) {
      std::fprintf(stderr, "cannot copy %s: %s\n", store_dir,
                   ec.message().c_str());
      return 1;
    }
    FreshStore copy(flush_dir);
    dislock::PassManager all;
    all.AddAllPasses();
    dislock::AnalysisResult result = all.Run(system, copy.options);
    double emit_ms = MedianMs(
        reps, [&] { (void)dislock::DiagnosticsToJson(result, system); });
    auto flush_start = Clock::now();
    copy.store.Flush();
    double flush_ms = MsSince(flush_start);

    double deadlock_ms = MedianMs(reps, [&] {
      (void)dislock::AnalyzeDeadlockFreedom(system, 1 << 20);
    });
    dislock::MultiSafetyReport multi;
    double multi_ms = MedianFreshMs(reps, dir, [&](FreshStore& s) {
      multi = dislock::AnalyzeMultiSafety(system, s.options);
    });

    std::printf(
        "{\"file\": \"%s\", \"bytes\": %zu, \"parse_ms\": %.4f, "
        "\"passes\": {%s}, \"emit_ms\": %.4f, \"deadlock_ms\": %.4f, "
        "\"multi_ms\": %.4f, \"pairs_checked\": %d, "
        "\"cycles_checked\": %d, \"open_ms\": %.4f, \"flush_ms\": %.4f}\n",
        files[f], text.size(), parse_ms, passes.c_str(), emit_ms,
        deadlock_ms, multi_ms, multi.pairs_checked, multi.cycles_checked,
        open_ms, flush_ms);
  }
  fs::remove_all(flush_dir);
  return 0;
}

int Session(const char* base_path, const char* requests_path) {
  std::string base;
  if (!ReadFile(base_path, &base)) {
    std::fprintf(stderr, "cannot read %s\n", base_path);
    return 1;
  }
  auto parsed = dislock::ParseSystemText(base);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  std::ifstream requests(requests_path);
  if (!requests) {
    std::fprintf(stderr, "cannot read %s\n", requests_path);
    return 1;
  }
  dislock::SessionOptions options;
  options.json = true;
  dislock::SessionCore core(options);
  dislock::CommandAssembler assembler(&core);
  std::string line;
  while (std::getline(requests, line)) {
    dislock::CommandAssembler::Step step = assembler.Consume(line);
    if (!step.command.has_value()) continue;
    const dislock::SessionCommand& cmd = *step.command;
    double parse_ms = 0;
    if (!cmd.block.empty() && cmd.verb != "system") {
      auto start = Clock::now();
      (void)dislock::ParseTransactionText(cmd.block, *parsed->db);
      parse_ms = MsSince(start);
    }
    auto start = Clock::now();
    dislock::SessionCore::Outcome out = core.Execute(cmd);
    double exec_ms = MsSince(start);
    std::string response = out.response;
    while (!response.empty() && response.back() == '\n') response.pop_back();
    std::printf("{\"verb\": \"%s\", \"exec_ms\": %.4f, \"parse_ms\": %.4f, "
                "\"ok\": %s%s%s}\n",
                cmd.verb.c_str(), exec_ms, parse_ms,
                out.failed ? "false" : "true",
                cmd.verb == "check" ? ", \"response\": " : "",
                cmd.verb == "check" ? response.c_str() : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 5 && std::strcmp(argv[1], "analyze") == 0) {
    int reps = std::max(1, std::atoi(argv[2]));
    return Analyze(reps, argv[3], argc - 4, argv + 4);
  }
  if (argc == 4 && std::strcmp(argv[1], "session") == 0) {
    return Session(argv[2], argv[3]);
  }
  std::fprintf(stderr,
               "usage: perfbench_probe analyze <reps> <store_dir> "
               "<system.dlk>...\n"
               "       perfbench_probe session <base.dlk> "
               "<requests.jsonl>\n");
  return 2;
}
