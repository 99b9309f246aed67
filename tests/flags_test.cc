// Unit tests for the shared tool flag parser (util/flags.h): both
// spellings of every common flag, the accepted-set gating, the error
// paths, and the help text that all three tools embed.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace dislock
