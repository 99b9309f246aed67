// Pins the wire contract of core/wire_keys.h: the method/stage name
// tables agree with the enum-to-name functions, the pre-joined span names
// agree with the stage table, every JSON emitter in the repo produces
// well-formed JSON, and every top-level document (and every session line)
// leads with "schema_version": 1.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/analyzer.h"
#include "analysis/emit.h"
#include "cache/verdict_store.h"
#include "analysis/repair/engine.h"
#include "core/deadlock.h"
#include "core/multi.h"
#include "core/paper.h"
#include "core/report.h"
#include "core/safety.h"
#include "core/decision/method.h"
#include "core/decision/stats.h"
#include "core/incremental/session.h"
#include "core/wire_keys.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dislock {
namespace {

constexpr char kVersionPrefix[] = "{\"schema_version\": 1, ";

void ExpectValidJson(const std::string& text, const char* what) {
  std::string error;
  EXPECT_TRUE(obs::IsValidJson(text, &error)) << what << ": " << error;
}

// ---- Name tables ----------------------------------------------------------

TEST(WireKeys, MethodTableMatchesEnumNames) {
  for (int m = 0; m < wire::kNumDecisionMethodNames; ++m) {
    EXPECT_STREQ(wire::kDecisionMethodNames[m],
                 DecisionMethodName(static_cast<DecisionMethod>(m)))
        << "method " << m;
  }
}

TEST(WireKeys, StageTableMatchesEnumNames) {
  for (int s = 0; s < wire::kNumDecisionStageNames; ++s) {
    EXPECT_STREQ(wire::kDecisionStageNames[s],
                 DecisionStageName(static_cast<DecisionStageId>(s)))
        << "stage " << s;
  }
}

TEST(WireKeys, StageSpanNamesAreStageDotStageName) {
  for (int s = 0; s < wire::kNumDecisionStageNames; ++s) {
    EXPECT_EQ(std::string(wire::kStageSpanNames[s]),
              std::string("stage.") + wire::kDecisionStageNames[s])
        << "stage " << s;
  }
}

// ---- Report emitters ------------------------------------------------------

TEST(WireFormat, PairAndMultiReportsAreValidJson) {
  for (auto make : {MakeFig4Instance, MakeFig5Instance}) {
    PaperInstance inst = make();
    SafetyOptions options;
    PairSafetyReport pair = AnalyzePairSafety(
        inst.system->txn(0), inst.system->txn(1), options);
    ExpectValidJson(PairReportToJson(pair, *inst.db), "pair report");
    MultiSafetyOptions multi_options;
    MultiSafetyReport multi = AnalyzeMultiSafety(*inst.system,
                                                 multi_options);
    ExpectValidJson(MultiReportToJson(multi, *inst.system), "multi report");
  }
}

TEST(WireFormat, DeadlockReportIsValidJson) {
  PaperInstance inst = MakeFig4Instance();
  auto report = AnalyzeDeadlockFreedom(*inst.system, 1 << 16);
  ASSERT_TRUE(report.ok());
  ExpectValidJson(DeadlockReportToJson(*report, *inst.system),
                  "deadlock report");
}

TEST(WireFormat, AnalysisEmittersAreValidJsonAndSarifIsVersioned) {
  PaperInstance inst = MakeFig1Instance();  // unsafe: produces diagnostics
  AnalysisOptions options;
  AnalysisResult result = AnalyzeSystem(*inst.system, options);
  EXPECT_FALSE(result.diagnostics.empty());
  std::string json = DiagnosticsToJson(result, *inst.system);
  ExpectValidJson(json, "diagnostics json");
  std::string sarif = DiagnosticsToSarif(result, *inst.system);
  ExpectValidJson(sarif, "sarif");
  // The run properties bag stamps the repo-wide schema version.
  EXPECT_NE(sarif.find("\"schema_version\": 1"), std::string::npos);
}

TEST(WireFormat, SarifFixesCarryWholeFileReplacements) {
  // When verified repairs ride along on the result, the SARIF rendering
  // attaches runs[].results[].fixes to the repairable diagnostics: one fix
  // per repair, each a whole-file replacement of the named artifact.
  PaperInstance inst = MakeFig1Instance();  // unsafe: DL002 is repairable
  AnalysisResult result = AnalyzeSystem(*inst.system);
  result.repair = SynthesizeRepairs(*inst.system, RepairOptions());
  ASSERT_TRUE(result.repair->attempted);
  ASSERT_FALSE(result.repair->repairs.empty());

  SarifArtifact artifact;
  artifact.uri = "data/fig1.dlk";
  artifact.end_line = 20;
  std::string sarif = DiagnosticsToSarif(result, *inst.system, artifact);
  ExpectValidJson(sarif, "sarif with fixes");
  EXPECT_NE(sarif.find("\"fixes\": ["), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("\"artifactChanges\""), std::string::npos);
  EXPECT_NE(sarif.find("\"artifactLocation\": {\"uri\": \"data/fig1.dlk\"}"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"deletedRegion\": {\"startLine\": 1, "
                       "\"startColumn\": 1, \"endLine\": 20}"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"insertedContent\""), std::string::npos);
  // The driver rules carry their catalog severities as defaultConfiguration.
  EXPECT_NE(sarif.find("\"defaultConfiguration\": {\"level\": \"error\"}"),
            std::string::npos);

  // Without a repair report, the fixes key must not appear at all.
  AnalysisResult plain = AnalyzeSystem(*inst.system);
  EXPECT_EQ(DiagnosticsToSarif(plain, *inst.system).find("\"fixes\""),
            std::string::npos);
}

// ---- Session line protocol ------------------------------------------------

TEST(WireFormat, EverySessionJsonLineIsVersionedAndValid) {
  // The line protocol has no enclosing document, so each line carries its
  // own schema_version — including error lines.
  std::istringstream in(
      "help\n"
      "load data/ring3.dlk\n"
      "check\n"
      "list\n"
      "stats\n"
      "remove NoSuchTxn\n");
  std::ostringstream out;
  SessionOptions options;
  options.json = true;
  options.load_root = DISLOCK_SOURCE_DIR;
  EXPECT_EQ(RunSession(in, out, options), 1);  // the bad remove
  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.rfind(kVersionPrefix, 0), 0u) << line;
    ExpectValidJson(line, "session line");
  }
  EXPECT_EQ(count, 6);
}

// The two-tier cache surface (docs/caching.md): the `cache` block keys of
// the session/serve stats response, the dotted metric names the store's
// owner exports, and the on-disk constants a foreign reader needs.
TEST(WireKeys, VerdictStoreKeysArePinned) {
  EXPECT_STREQ(wire::kCache, "cache");
  EXPECT_STREQ(wire::kDiskHits, "disk_hits");
  EXPECT_STREQ(wire::kDiskMisses, "disk_misses");
  EXPECT_STREQ(wire::kRecordsLoaded, "records_loaded");
  EXPECT_STREQ(wire::kRecordsFlushed, "records_flushed");
  EXPECT_STREQ(wire::kRecordsDropped, "records_dropped");
  EXPECT_STREQ(wire::kDiskRecords, "disk_records");
  EXPECT_STREQ(wire::kCacheFileGeneration, "cache_file_generation");
}

TEST(WireKeys, VerdictStoreMetricNamesArePinned) {
  EXPECT_STREQ(wire::kMetricCacheHits, "cache.hits");
  EXPECT_STREQ(wire::kMetricCacheMisses, "cache.misses");
  EXPECT_STREQ(wire::kMetricCacheSize, "cache.size");
  EXPECT_STREQ(wire::kMetricCacheHitRate, "cache.hit_rate");
  EXPECT_STREQ(wire::kMetricCacheDiskHits, "cache.disk_hits");
  EXPECT_STREQ(wire::kMetricCacheDiskMisses, "cache.disk_misses");
  EXPECT_STREQ(wire::kMetricCacheRecordsLoaded, "cache.records_loaded");
  EXPECT_STREQ(wire::kMetricCacheRecordsFlushed, "cache.records_flushed");
  EXPECT_STREQ(wire::kMetricCacheRecordsDropped, "cache.records_dropped");
  EXPECT_STREQ(wire::kMetricCacheDiskRecords, "cache.disk_records");
  EXPECT_STREQ(wire::kMetricCacheFileGeneration, "cache.file_generation");
}

TEST(WireKeys, VerdictStoreFileConstantsArePinned) {
  // Bumping the schema or generation constant invalidates every store on
  // every machine — it must be deliberate, so the values are pinned here.
  EXPECT_EQ(cache::kVerdictStoreSchemaVersion, 1u);
  EXPECT_EQ(cache::kVerdictStoreGeneration, 2u);
  EXPECT_STREQ(cache::kVerdictLogFileName, "verdicts.dlc");
  EXPECT_STREQ(cache::kVerdictIndexFileName, "verdicts.idx");
  EXPECT_STREQ(cache::kVerdictLockFileName, "verdicts.lock");
}

// The stats line's `cache` block appears exactly when a persistent store
// is attached, so store-less sessions keep their historical bytes.
TEST(WireFormat, SessionStatsCacheBlockRequiresAStore) {
  auto run_stats = [](cache::VerdictStore* store) {
    std::istringstream in(
        "load data/ring3.dlk\n"
        "check\n"
        "stats\n");
    std::ostringstream out;
    SessionOptions options;
    options.json = true;
    options.load_root = DISLOCK_SOURCE_DIR;
    options.config.store = store;
    EXPECT_EQ(RunSession(in, out, options), 0);
    return out.str();
  };

  const std::string without = run_stats(nullptr);
  EXPECT_EQ(without.find("\"cache\":"), std::string::npos) << without;

  cache::VerdictStore store;
  ASSERT_TRUE(store.Open(testing::TempDir() + "/wire_format_cache_block"));
  const std::string with = run_stats(&store);
  for (const char* key :
       {"\"cache\": {", "\"disk_hits\":", "\"disk_misses\":",
        "\"records_loaded\":", "\"records_flushed\":",
        "\"records_dropped\":", "\"disk_records\":",
        "\"cache_file_generation\": 2"}) {
    EXPECT_NE(with.find(key), std::string::npos) << key << "\n" << with;
  }
  std::istringstream lines(with);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind(kVersionPrefix, 0), 0u) << line;
    ExpectValidJson(line, "session line with store");
  }
}

TEST(WireKeys, ServeMetricNamesArePinned) {
  EXPECT_STREQ(wire::kMetricServeCommands, "serve.commands");
  EXPECT_STREQ(wire::kMetricServeResponses, "serve.responses");
  EXPECT_STREQ(wire::kMetricServeClients, "serve.clients");
  EXPECT_STREQ(wire::kMetricServeErrors, "serve.errors");
  EXPECT_STREQ(wire::kMetricServeQueuePeak, "serve.queue_peak");
}

// The stats line is one valid versioned JSON object with exactly the
// documented fields, in order, like every other session response.
TEST(WireFormat, SessionStatsIsOneVersionedJsonLine) {
  std::istringstream in(
      "load data/ring3.dlk\n"
      "check\n"
      "stats\n");
  std::ostringstream out;
  SessionOptions options;
  options.json = true;
  options.load_root = DISLOCK_SOURCE_DIR;
  EXPECT_EQ(RunSession(in, out, options), 0);
  std::istringstream lines(out.str());
  std::string line;
  std::string stats;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind(kVersionPrefix, 0), 0u) << line;
    ExpectValidJson(line, "session line");
    if (line.find("\"cmd\": \"stats\"") != std::string::npos) stats = line;
  }
  size_t at = 0;
  for (const char* key :
       {"\"generation\": ", "\"transactions\": ", "\"checks\": ",
        "\"pair_store\": ", "\"cycle_store\": ", "\"totals\": {"}) {
    size_t found = stats.find(key, at);
    EXPECT_NE(found, std::string::npos) << key << "\n" << stats;
    if (found != std::string::npos) at = found;
  }
  EXPECT_EQ(stats.find("shard"), std::string::npos) << stats;
}

// ---- Observability emitters -----------------------------------------------

TEST(WireFormat, TraceAndMetricsDocumentsLeadWithSchemaVersion) {
  obs::TraceRecorder recorder;
  { obs::TraceSpan span(&recorder, wire::kSpanPass); }
  std::string trace = recorder.ToChromeTraceJson();
  ExpectValidJson(trace, "trace");
  // First key of the document (after whitespace) is schema_version.
  EXPECT_EQ(trace.find("\"schema_version\": 1"), trace.find('"'));

  obs::MetricsRegistry registry;
  registry.AddCounter(wire::kMetricSessionCommands, 1);
  std::string metrics = registry.ToJson();
  ExpectValidJson(metrics, "metrics");
  EXPECT_EQ(metrics.find("\"schema_version\": 1"), metrics.find('"'));
}

}  // namespace
}  // namespace dislock
