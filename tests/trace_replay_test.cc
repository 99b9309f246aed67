// Replay byte-identity tests (src/gen/replay.h): every registered family's
// trace must produce byte-identical responses through the direct
// SessionCore replay and the serve-style sequencer at 1 and 4 threads —
// the same gate `dislock replay --verify` and `dislock_bench
// --bench=trace` run. Also covers the `system` session verb the traces
// rely on (JSON envelope only).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/incremental/session.h"
#include "gen/family.h"
#include "gen/replay.h"
#include "gen/trace.h"

namespace dislock {
namespace gen {
namespace {

TEST(TraceReplay, EveryFamilyIsGridIdenticalAtDefaults) {
  for (const std::string& family : RegisteredFamilies()) {
    auto trace = GenerateTrace(family);
    ASSERT_TRUE(trace.ok()) << family;
    VerifyResult verify = VerifyReplay(*trace);
    EXPECT_TRUE(verify.ok) << family;
    // service@1, direct@4, service@4 against the direct@1 reference.
    ASSERT_EQ(verify.cells.size(), 3u) << family;
    for (const VerifyCell& cell : verify.cells) {
      EXPECT_TRUE(cell.identical)
          << family << " diverged: " << cell.transport
          << " threads=" << cell.threads;
      EXPECT_EQ(cell.errors, 0)
          << family << " failed commands: " << cell.transport
          << " threads=" << cell.threads;
    }
  }
}

TEST(TraceReplay, DirectReplayExecutesEveryRecordCleanly) {
  auto trace = GenerateTrace("churn");
  ASSERT_TRUE(trace.ok());
  ReplayResult direct = ReplayDirect(*trace, ReplayOptions());
  EXPECT_EQ(direct.commands, trace->header.records);
  EXPECT_GT(direct.checks, 1);  // churn re-checks along the edit stream
  EXPECT_EQ(direct.errors, 0);

  std::istringstream lines(direct.output);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"cmd\": \"check\"") != std::string::npos) ++count;
  }
  EXPECT_EQ(count, direct.checks);
}

TEST(TraceReplay, ServiceMatchesDirect) {
  auto trace = GenerateTrace("churn");
  ASSERT_TRUE(trace.ok());
  ReplayResult direct = ReplayDirect(*trace, ReplayOptions());
  for (int threads : {1, 4}) {
    ReplayOptions options;
    options.threads = threads;
    ReplayResult service = ReplayService(*trace, options);
    EXPECT_EQ(service.output, direct.output) << "threads=" << threads;
    EXPECT_EQ(service.commands, direct.commands) << "threads=" << threads;
    EXPECT_EQ(service.checks, direct.checks) << "threads=" << threads;
    EXPECT_EQ(service.errors, direct.errors) << "threads=" << threads;
  }
}

// The property test: randomized edit-mix traces (seeded, so reproducible
// on failure) replay grid-identically at 1 and 4 threads. The churn family
// exercises add/remove/replace; two_site and hotkey randomize the lock
// footprints.
TEST(TraceReplay, RandomizedTracesAreGridIdentical) {
  struct Case {
    const char* family;
    ParamMap params;
  };
  const std::vector<Case> cases = {
      {"churn", {{"k", 5}, {"edits", 9}, {"check_every", 3}}},
      {"two_site", {{"k", 7}, {"entities", 5}, {"locks", 2}}},
      {"hotkey", {{"k", 6}, {"entities", 8}, {"skew", 1.5}}},
  };
  for (const Case& c : cases) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      auto trace = GenerateTrace(c.family, c.params, seed);
      ASSERT_TRUE(trace.ok()) << c.family << " seed " << seed;
      VerifyResult verify = VerifyReplay(*trace, {1, 4});
      EXPECT_TRUE(verify.ok) << c.family << " seed " << seed;
      for (const VerifyCell& cell : verify.cells) {
        EXPECT_TRUE(cell.identical)
            << c.family << " seed " << seed << " diverged: "
            << cell.transport << " threads=" << cell.threads;
      }
    }
  }
}

int RunJsonSession(const std::string& script, std::string* output) {
  std::istringstream in(script);
  std::ostringstream out;
  SessionOptions options;
  options.json = true;
  int failed = RunSession(in, out, options);
  *output = out.str();
  return failed;
}

TEST(SessionSystemVerb, InlineSystemInitializesTheCatalog) {
  auto trace = GenerateTrace("ring");
  ASSERT_TRUE(trace.ok());
  std::string script;
  for (const std::string& record : trace->records) {
    script += record;
    script += '\n';
  }
  std::string output;
  EXPECT_EQ(RunJsonSession(script, &output), 0);
  EXPECT_NE(output.find("\"cmd\": \"system\", \"ok\": true"),
            std::string::npos);
  EXPECT_NE(output.find("\"transactions\": 8"), std::string::npos);
  EXPECT_NE(output.find("\"cmd\": \"check\", \"ok\": true"),
            std::string::npos);
}

TEST(SessionSystemVerb, MissingBlockIsAnError) {
  std::string output;
  EXPECT_EQ(RunJsonSession("{\"cmd\": \"system\"}\n", &output), 1);
  EXPECT_NE(output.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(output.find("JSON envelope only"), std::string::npos);
}

TEST(SessionSystemVerb, TextModeCannotCarryTheBlock) {
  // Text-mode block collection stops at the first `end` line, which would
  // truncate a multi-transaction system — so `system` is JSON-only and the
  // bare text command reports the same missing-block error.
  std::istringstream in("system\n");
  std::ostringstream out;
  EXPECT_EQ(RunSession(in, out, SessionOptions()), 1);
  EXPECT_NE(out.str().find("error:"), std::string::npos);
  EXPECT_NE(out.str().find("JSON envelope only"), std::string::npos);
}

TEST(SessionSystemVerb, BadSystemTextLeavesTheCatalogIntact) {
  auto trace = GenerateTrace("ring");
  ASSERT_TRUE(trace.ok());
  std::string script = trace->records[0] + "\n";  // the good system
  script += "{\"cmd\": \"system\", \"block\": \"sites 0\"}\n";  // rejected
  script += "{\"cmd\": \"check\"}\n";
  std::string output;
  EXPECT_EQ(RunJsonSession(script, &output), 1);  // exactly the bad one
  EXPECT_NE(output.find("\"cmd\": \"check\", \"ok\": true"),
            std::string::npos);
}

TEST(SessionSystemVerb, BlockOnOtherVerbsStaysRejected) {
  std::string output;
  EXPECT_EQ(RunJsonSession(
                "{\"cmd\": \"check\", \"block\": \"txn T end\"}\n", &output),
            1);
  EXPECT_NE(output.find("\"ok\": false"), std::string::npos);
}

}  // namespace
}  // namespace gen
}  // namespace dislock
