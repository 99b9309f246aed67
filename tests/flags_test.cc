// Unit tests for the shared tool flag parser (util/flags.h): both
// spellings of every common flag, the accepted-set gating, the error
// paths, and the help text that all three tools embed. The tool-running
// cases at the end also pin what `dislock analyze` prints for its one
// deadlock search.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/decision/config.h"
#include "gen/family.h"
#include "txn/text_format.h"
#include "util/flags.h"

namespace dislock {
namespace {

// Runs ParseCommonFlag over a full argv-style vector the way the tools
// do, returning the outcome of the first slot (the tests only ever need
// one flag per call).
struct ParseOutcome {
  FlagParse result;
  CommonFlags flags;
  std::string error;
};

ParseOutcome Parse(std::vector<std::string> args,
                   unsigned accepted = kThreadsFlag | kCacheFlag |
                                       kFormatFlag | kObsFlags) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("tool"));
  for (std::string& arg : args) argv.push_back(arg.data());
  ParseOutcome out;
  out.result = ParseCommonFlag(static_cast<int>(argv.size()), argv.data(),
                               1, accepted, &out.flags, &out.error);
  return out;
}

TEST(Flags, ThreadsBothSpellings) {
  ParseOutcome space = Parse({"--threads", "4"});
  EXPECT_EQ(space.result, FlagParse::kConsumedTwo);
  EXPECT_EQ(space.flags.num_threads, 4);

  ParseOutcome equals = Parse({"--threads=8"});
  EXPECT_EQ(equals.result, FlagParse::kConsumedOne);
  EXPECT_EQ(equals.flags.num_threads, 8);
}

TEST(Flags, ThreadsMissingValueIsAnError) {
  ParseOutcome out = Parse({"--threads"});
  EXPECT_EQ(out.result, FlagParse::kError);
  EXPECT_FALSE(out.error.empty());
}

TEST(Flags, PrefixOfAFlagIsNotTheFlag) {
  // "--threadsabc" must not match --threads; it falls through to the
  // tool's unknown-argument rejection.
  EXPECT_EQ(Parse({"--threadsabc"}).result, FlagParse::kNotCommon);
}

TEST(Flags, Cache) {
  ParseOutcome out = Parse({"--cache"});
  EXPECT_EQ(out.result, FlagParse::kConsumedOne);
  EXPECT_TRUE(out.flags.cache);
}

TEST(Flags, FormatSpellingsAndAliases) {
  for (const char* fmt : {"text", "json", "sarif"}) {
    ParseOutcome out = Parse({std::string("--format=") + fmt});
    EXPECT_EQ(out.result, FlagParse::kConsumedOne) << fmt;
    EXPECT_EQ(out.flags.format, fmt);
  }
  ParseOutcome space = Parse({"--format", "sarif"});
  EXPECT_EQ(space.result, FlagParse::kConsumedTwo);
  EXPECT_EQ(space.flags.format, "sarif");

  EXPECT_EQ(Parse({"--json"}).flags.format, "json");
  EXPECT_EQ(Parse({"--sarif"}).flags.format, "sarif");
}

TEST(Flags, FormatRejectsUnknownValues) {
  ParseOutcome out = Parse({"--format=yaml"});
  EXPECT_EQ(out.result, FlagParse::kError);
  EXPECT_NE(out.error.find("text, json, or sarif"), std::string::npos);
  EXPECT_EQ(Parse({"--format"}).result, FlagParse::kError);
}

TEST(Flags, TraceRequiresAFile) {
  ParseOutcome equals = Parse({"--trace=out.json"});
  EXPECT_EQ(equals.result, FlagParse::kConsumedOne);
  EXPECT_EQ(equals.flags.trace_path, "out.json");

  ParseOutcome space = Parse({"--trace", "out.json"});
  EXPECT_EQ(space.result, FlagParse::kConsumedTwo);
  EXPECT_EQ(space.flags.trace_path, "out.json");

  EXPECT_EQ(Parse({"--trace"}).result, FlagParse::kError);
  EXPECT_EQ(Parse({"--trace="}).result, FlagParse::kError);
}

TEST(Flags, MetricsValueIsOptionalButNeverSpaceSeparated) {
  ParseOutcome bare = Parse({"--metrics"});
  EXPECT_EQ(bare.result, FlagParse::kConsumedOne);
  EXPECT_TRUE(bare.flags.metrics);
  EXPECT_TRUE(bare.flags.metrics_path.empty());

  ParseOutcome file = Parse({"--metrics=m.json"});
  EXPECT_EQ(file.result, FlagParse::kConsumedOne);
  EXPECT_TRUE(file.flags.metrics);
  EXPECT_EQ(file.flags.metrics_path, "m.json");

  // The space spelling must NOT consume the next argument (it would
  // swallow a positional); "--metrics input.dlk" is bare --metrics and
  // then the tool's positional.
  ParseOutcome space = Parse({"--metrics", "input.dlk"});
  EXPECT_EQ(space.result, FlagParse::kConsumedOne);
  EXPECT_TRUE(space.flags.metrics_path.empty());
}

TEST(Flags, UnacceptedFlagsAreNotCommon) {
  // A tool that doesn't accept --format must leave it for its own
  // rejection path, even though the parser knows the flag.
  EXPECT_EQ(Parse({"--format=json"}, kThreadsFlag | kCacheFlag).result,
            FlagParse::kNotCommon);
  EXPECT_EQ(Parse({"--cache"}, kThreadsFlag).result, FlagParse::kNotCommon);
  EXPECT_EQ(Parse({"--trace=x.json"}, kThreadsFlag).result,
            FlagParse::kNotCommon);
}

TEST(Flags, NonFlagsAreNotCommon) {
  EXPECT_EQ(Parse({"input.dlk"}).result, FlagParse::kNotCommon);
  EXPECT_EQ(Parse({"--something-else"}).result, FlagParse::kNotCommon);
}

TEST(Flags, HelpTextCoversExactlyTheAcceptedSet) {
  std::string all = CommonFlagsHelp(kThreadsFlag | kCacheFlag |
                                    kFormatFlag | kObsFlags);
  for (const char* flag :
       {"--threads", "--cache", "--format", "--trace", "--metrics"}) {
    EXPECT_NE(all.find(flag), std::string::npos) << flag;
  }
  std::string narrow = CommonFlagsHelp(kThreadsFlag | kCacheFlag);
  EXPECT_NE(narrow.find("--threads"), std::string::npos);
  EXPECT_EQ(narrow.find("--format"), std::string::npos);
  EXPECT_EQ(narrow.find("--trace"), std::string::npos);
}

TEST(Flags, DefaultsMatchTheDocumentedContract) {
  CommonFlags flags;
  EXPECT_EQ(flags.num_threads, 1);
  EXPECT_FALSE(flags.cache);
  EXPECT_EQ(flags.format, "text");
  EXPECT_TRUE(flags.trace_path.empty());
  EXPECT_FALSE(flags.metrics);
  EXPECT_EQ(flags.port, 4400);
  EXPECT_EQ(flags.clients, 100);
  EXPECT_EQ(flags.seed, 42u);  // the generator contract: default seed 42
  EXPECT_TRUE(flags.out.empty());
  EXPECT_TRUE(flags.endpoint.empty());
}

TEST(Flags, CacheDirBothSpellings) {
  ParseOutcome space = Parse({"--cache-dir", "/tmp/c"}, kCacheDirFlag);
  EXPECT_EQ(space.result, FlagParse::kConsumedTwo);
  EXPECT_EQ(space.flags.cache_dir, "/tmp/c");

  ParseOutcome equals = Parse({"--cache-dir=/tmp/c"}, kCacheDirFlag);
  EXPECT_EQ(equals.result, FlagParse::kConsumedOne);
  EXPECT_EQ(equals.flags.cache_dir, "/tmp/c");
}

TEST(Flags, CacheDirMissingValueIsAnError) {
  for (const char* spelling : {"--cache-dir", "--cache-dir="}) {
    ParseOutcome out = Parse({spelling}, kCacheDirFlag);
    EXPECT_EQ(out.result, FlagParse::kError) << spelling;
    EXPECT_EQ(out.error, "--cache-dir requires a directory") << spelling;
  }
}

TEST(Flags, CacheDirRespectsTheAcceptedSet) {
  // Independent of --cache: a tool may accept either without the other.
  EXPECT_EQ(Parse({"--cache-dir=/tmp/c"}, kCacheFlag).result,
            FlagParse::kNotCommon);
  EXPECT_NE(CommonFlagsHelp(kCacheDirFlag).find("--cache-dir"),
            std::string::npos);
  EXPECT_EQ(CommonFlagsHelp(kCacheFlag).find("--cache-dir"),
            std::string::npos);
}

TEST(Flags, EffectiveCacheDirPrefersTheFlagOverTheEnvironment) {
  CommonFlags flags;
  unsetenv("DISLOCK_CACHE_DIR");
  EXPECT_EQ(EffectiveCacheDir(flags), "");

  setenv("DISLOCK_CACHE_DIR", "/tmp/from-env", /*overwrite=*/1);
  EXPECT_EQ(EffectiveCacheDir(flags), "/tmp/from-env");

  flags.cache_dir = "/tmp/from-flag";  // the flag always wins
  EXPECT_EQ(EffectiveCacheDir(flags), "/tmp/from-flag");

  unsetenv("DISLOCK_CACHE_DIR");
  EXPECT_EQ(EffectiveCacheDir(flags), "/tmp/from-flag");
}

TEST(Flags, ServeFlagsBothSpellings) {
  ParseOutcome port = Parse({"--port", "7001"}, kServeFlags);
  EXPECT_EQ(port.result, FlagParse::kConsumedTwo);
  EXPECT_EQ(port.flags.port, 7001);
  EXPECT_EQ(Parse({"--port=0"}, kServeFlags).flags.port, 0);

  ParseOutcome clients = Parse({"--clients=250"}, kServeFlags);
  EXPECT_EQ(clients.result, FlagParse::kConsumedOne);
  EXPECT_EQ(clients.flags.clients, 250);
}

TEST(Flags, ServeFlagsMissingValuesAreErrors) {
  for (const char* flag : {"--port", "--clients"}) {
    ParseOutcome out = Parse({flag}, kServeFlags);
    EXPECT_EQ(out.result, FlagParse::kError) << flag;
    EXPECT_EQ(out.error, std::string(flag) + " requires a value") << flag;
  }
}

TEST(Flags, ServeFlagsRespectTheAcceptedSet) {
  // A tool that doesn't opt into kServeFlags leaves them for its own
  // unknown-argument rejection (the uniform exit-2 contract).
  EXPECT_EQ(Parse({"--port=7001"}, kThreadsFlag).result,
            FlagParse::kNotCommon);
  EXPECT_EQ(Parse({"--clients=8"}, kThreadsFlag).result,
            FlagParse::kNotCommon);
  std::string help = CommonFlagsHelp(kServeFlags);
  for (const char* flag : {"--port", "--clients"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  }
  EXPECT_EQ(CommonFlagsHelp(kThreadsFlag).find("--port"), std::string::npos);
}

constexpr unsigned kGenFlags = kSeedFlag | kOutFlag | kEndpointFlag;

TEST(Flags, GenReplayFlagsBothSpellings) {
  ParseOutcome seed = Parse({"--seed", "7"}, kGenFlags);
  EXPECT_EQ(seed.result, FlagParse::kConsumedTwo);
  EXPECT_EQ(seed.flags.seed, 7u);
  // Full uint64 range: a trace header's seed must survive the flag.
  EXPECT_EQ(Parse({"--seed=18446744073709551615"}, kGenFlags).flags.seed,
            18446744073709551615ull);

  ParseOutcome out = Parse({"--out=trace.dlt"}, kGenFlags);
  EXPECT_EQ(out.result, FlagParse::kConsumedOne);
  EXPECT_EQ(out.flags.out, "trace.dlt");
  EXPECT_EQ(Parse({"--out", "t.dlt"}, kGenFlags).flags.out, "t.dlt");

  ParseOutcome endpoint = Parse({"--endpoint", "127.0.0.1:4400"}, kGenFlags);
  EXPECT_EQ(endpoint.result, FlagParse::kConsumedTwo);
  EXPECT_EQ(endpoint.flags.endpoint, "127.0.0.1:4400");
  EXPECT_EQ(Parse({"--endpoint=host:1"}, kGenFlags).flags.endpoint,
            "host:1");
}

TEST(Flags, GenReplayFlagsMissingValuesAreErrors) {
  struct Case {
    const char* spelling;
    const char* message;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"--seed", "--seed requires a value"},
           {"--seed=", "--seed requires a value"},
           {"--out", "--out requires an output file"},
           {"--out=", "--out requires an output file"},
           {"--endpoint", "--endpoint requires HOST:PORT"},
           {"--endpoint=", "--endpoint requires HOST:PORT"}}) {
    ParseOutcome out = Parse({c.spelling}, kGenFlags);
    EXPECT_EQ(out.result, FlagParse::kError) << c.spelling;
    EXPECT_EQ(out.error, c.message) << c.spelling;
  }
}

TEST(Flags, GenReplayFlagsRespectTheAcceptedSet) {
  EXPECT_EQ(Parse({"--seed=7"}, kThreadsFlag).result, FlagParse::kNotCommon);
  EXPECT_EQ(Parse({"--out=x"}, kThreadsFlag).result, FlagParse::kNotCommon);
  EXPECT_EQ(Parse({"--endpoint=h:1"}, kThreadsFlag).result,
            FlagParse::kNotCommon);
  std::string help = CommonFlagsHelp(kGenFlags);
  for (const char* flag : {"--seed", "--out", "--endpoint"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  }
  EXPECT_EQ(CommonFlagsHelp(kThreadsFlag).find("--seed"), std::string::npos);
}

// Runs `command` with stdin closed off; returns its exit code and stores
// its combined stdout/stderr in *output.
int RunTool(const std::string& command, std::string* output) {
  FILE* pipe = popen((command + " </dev/null 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    output->append(chunk, n);
  }
  int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// No tool takes --shards: each rejects it with the uniform unknown-argument
// message and exit code 2.
TEST(Flags, ToolsRejectTheRemovedShardsFlag) {
  struct Case {
    std::string command;
    std::string tool;
  };
  for (const Case& c : std::initializer_list<Case>{
           {std::string(DISLOCK_CLI_BIN) + " session --shards 4", "dislock"},
           {std::string(DISLOCK_CLI_BIN) + " replay --shards 4", "dislock"},
           {std::string(DISLOCK_SERVE_BIN) + " --shards 4", "dislock_serve"},
           {std::string(DISLOCK_BENCH_BIN) + " --shards 4",
            "dislock_bench"}}) {
    std::string output;
    EXPECT_EQ(RunTool(c.command, &output), 2) << c.command << "\n" << output;
    EXPECT_EQ(output.rfind(c.tool + ": unknown argument '--shards'\n", 0),
              0u)
        << c.command << "\n"
        << output;
  }
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int CountOccurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// `dislock analyze` searches the reachable lock states once: the deadlock
// block renders the `deadlock` pass's own search.
TEST(Flags, AnalyzeRunsOneDeadlockSearch) {
  const std::string trace = testing::TempDir() + "analyze_fig4.trace.json";
  std::string output;
  ASSERT_EQ(RunTool(std::string(DISLOCK_CLI_BIN) + " analyze " +
                        DISLOCK_SOURCE_DIR + "/data/fig4.dlk --trace=" +
                        trace,
                    &output),
            0)
      << output;
  EXPECT_NE(output.find("deadlock: reachable after prefix"),
            std::string::npos)
      << output;
  EXPECT_EQ(CountOccurrences(ReadWholeFile(trace),
                             "\"name\": \"deadlock.search\""),
            1);

  // Without the `deadlock` pass there is no search and so no block.
  output.clear();
  ASSERT_EQ(RunTool(std::string(DISLOCK_CLI_BIN) + " analyze " +
                        DISLOCK_SOURCE_DIR +
                        "/data/fig4.dlk --passes pair-safety --trace=" + trace,
                    &output),
            0)
      << output;
  EXPECT_EQ(output.find("deadlock:"), std::string::npos) << output;
  EXPECT_EQ(CountOccurrences(ReadWholeFile(trace), "deadlock.search"), 0);
}

// A system whose reachable states overrun max_deadlock_states gets the
// pass's answer: DL206, no JSON deadlock block, and the pass's status on
// the text deadlock line.
TEST(Flags, AnalyzeOverTheStateBudgetReportsThePassVerdict) {
  auto workload = gen::BuildFamily("sat_gadget", {{"vars", 8}});
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const std::string path = testing::TempDir() + "sat_gadget_vars8.dlk";
  {
    std::ofstream out(path);
    out << SystemToText(*workload->system);
  }
  const std::string exceeded = "deadlock search exceeded " +
                               std::to_string(EngineConfig{}.max_deadlock_states) +
                               " states";
  const std::string analyze = std::string(DISLOCK_CLI_BIN) + " analyze " + path;

  std::string json;
  ASSERT_EQ(RunTool(analyze + " --json", &json), 0) << json;
  EXPECT_NE(json.find("\"DL206\""), std::string::npos) << json;
  EXPECT_NE(json.find(exceeded), std::string::npos) << json;
  EXPECT_EQ(json.find("\"deadlock\":"), std::string::npos) << json;

  std::string text;
  ASSERT_EQ(RunTool(analyze, &text), 0) << text;
  EXPECT_NE(text.find("deadlock: ResourceExhausted: " + exceeded + "\n"),
            std::string::npos)
      << text;
}

// A Theorem 3 gadget with thousands of dominators is decided at the
// default budget: the streamed dominator search stops at the first that
// closes and the certificate rides along.
TEST(Flags, AnalyzeDecidesASatGadgetAtTheDefaultDominatorBudget) {
  auto workload =
      gen::BuildFamily("sat_gadget", {{"vars", 8}, {"clauses", 16}}, 1);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const std::string path = testing::TempDir() + "sat_gadget_v8c16.dlk";
  {
    std::ofstream out(path);
    out << SystemToText(*workload->system);
  }
  std::string json;
  ASSERT_EQ(RunTool(std::string(DISLOCK_CLI_BIN) + " analyze " + path +
                        " --no-deadlock --json",
                    &json),
            0)
      << json;
  EXPECT_NE(json.find("\"rule\": \"DL004\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"certificate\": {"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"rule\": \"DL005\""), std::string::npos) << json;
}

}  // namespace
}  // namespace dislock
