#ifndef DISLOCK_CORE_WIRE_KEYS_H_
#define DISLOCK_CORE_WIRE_KEYS_H_

namespace dislock {
namespace wire {

// Single source of truth for the strings that cross the wire: JSON/SARIF
// keys, the DecisionMethod/DecisionStageId name tables, trace span names,
// and metric names. core/report.cc, analysis/emit.cc, the stats exporters
// (core/stats_export.h), and the instrumentation sites all reference these
// constants, so a key cannot drift between emitters — the fig4/fig5 golden
// tests pin the resulting bytes. docs/formats.md documents the schema;
// docs/observability.md documents the span/metric taxonomy.

// ---- Schema version -------------------------------------------------------
// Stamped as the first key of every top-level JSON document the repo emits
// (analyze --json, SARIF run properties, session lines, bench tables,
// metrics, traces). Bump on any incompatible key change.
inline constexpr int kSchemaVersion = 1;
inline constexpr char kSchemaVersionKey[] = "schema_version";

// ---- Decision method / stage wire names -----------------------------------
// Indexed by the integer value of DecisionMethod / DecisionStageId
// (core/decision/method.h, core/decision/stats.h); those headers document
// the same strings and DecisionMethodName()/DecisionStageName() serve them.
inline constexpr const char* kDecisionMethodNames[] = {
    "none",              // DecisionMethod::kNone
    "theorem-1",         // DecisionMethod::kTheorem1
    "theorem-2",         // DecisionMethod::kTheorem2
    "corollary-2",       // DecisionMethod::kCorollary2
    "dominator-closure", // DecisionMethod::kDominatorClosure
    "exhaustive",        // DecisionMethod::kExhaustive
};
inline constexpr int kNumDecisionMethodNames =
    sizeof(kDecisionMethodNames) / sizeof(kDecisionMethodNames[0]);

inline constexpr const char* kDecisionStageNames[] = {
    "theorem1-scc",        // DecisionStageId::kTheorem1Scc
    "theorem2-two-site",   // DecisionStageId::kTheorem2TwoSite
    "corollary2-closure",  // DecisionStageId::kCorollary2Closure
    "brute-force-lemma1",  // DecisionStageId::kBruteForceLemma1
};
inline constexpr int kNumDecisionStageNames =
    sizeof(kDecisionStageNames) / sizeof(kDecisionStageNames[0]);

// ---- Pipeline stat keys (PipelineStatsToJson) -----------------------------
inline constexpr char kStage[] = "stage";
inline constexpr char kAttempts[] = "attempts";
inline constexpr char kDecided[] = "decided";
inline constexpr char kSkipped[] = "skipped";
inline constexpr char kBudgetExhausted[] = "budget_exhausted";
inline constexpr char kWork[] = "work";

// ---- Pair report keys (PairReportToJson) ----------------------------------
inline constexpr char kVerdict[] = "verdict";
inline constexpr char kMethod[] = "method";
inline constexpr char kSites[] = "sites";
inline constexpr char kDNodes[] = "d_nodes";
inline constexpr char kDArcs[] = "d_arcs";
inline constexpr char kDStronglyConnected[] = "d_strongly_connected";
inline constexpr char kDetail[] = "detail";
inline constexpr char kPipeline[] = "pipeline";
inline constexpr char kCertificate[] = "certificate";

// ---- Certificate keys (CertificateToJson) ---------------------------------
inline constexpr char kDominator[] = "dominator";
inline constexpr char kT1[] = "t1";
inline constexpr char kT2[] = "t2";
inline constexpr char kSchedule[] = "schedule";
inline constexpr char kSeparatesAbove[] = "separates_above";
inline constexpr char kSeparatesBelow[] = "separates_below";

// ---- Multi report keys (MultiReportToJson) --------------------------------
inline constexpr char kPairsChecked[] = "pairs_checked";
inline constexpr char kPairsCached[] = "pairs_cached";
inline constexpr char kCyclesChecked[] = "cycles_checked";
inline constexpr char kFailingPair[] = "failing_pair";
inline constexpr char kFailingCycle[] = "failing_cycle";
inline constexpr char kDelta[] = "delta";

// ---- Delta stat keys (DeltaStatsToJson) -----------------------------------
inline constexpr char kTxnsAdded[] = "txns_added";
inline constexpr char kTxnsRemoved[] = "txns_removed";
inline constexpr char kTxnsReplaced[] = "txns_replaced";
inline constexpr char kPairsReused[] = "pairs_reused";
inline constexpr char kPairsRecomputed[] = "pairs_recomputed";
inline constexpr char kCyclesReused[] = "cycles_reused";
inline constexpr char kCyclesRecomputed[] = "cycles_recomputed";
inline constexpr char kFull[] = "full";

// ---- Deadlock report keys (DeadlockReportToJson) --------------------------
inline constexpr char kDeadlockFree[] = "deadlock_free";
inline constexpr char kStatesExplored[] = "states_explored";
inline constexpr char kDeadPrefix[] = "dead_prefix";
inline constexpr char kBlocked[] = "blocked";
inline constexpr char kTxn[] = "txn";
inline constexpr char kWaitsFor[] = "waits_for";

// ---- Analysis emitters (analysis/emit.cc) ---------------------------------
inline constexpr char kPasses[] = "passes";
inline constexpr char kDiagnostics[] = "diagnostics";
inline constexpr char kSeverity[] = "severity";
inline constexpr char kRule[] = "rule";
inline constexpr char kRuleName[] = "name";
inline constexpr char kOtherTxn[] = "other_txn";
inline constexpr char kStep[] = "step";
inline constexpr char kEntity[] = "entity";
inline constexpr char kMessage[] = "message";
inline constexpr char kFixHint[] = "fix_hint";
inline constexpr char kSummary[] = "summary";
inline constexpr char kErrors[] = "errors";
inline constexpr char kWarnings[] = "warnings";
inline constexpr char kNotes[] = "notes";
inline constexpr char kProperties[] = "properties";
inline constexpr char kDeadlockCertificate[] = "deadlock_certificate";

// ---- Rule catalog (RulesToJson) -------------------------------------------
inline constexpr char kRules[] = "rules";
inline constexpr char kId[] = "id";
inline constexpr char kCitation[] = "citation";

// ---- Repair report keys (RepairReportToJson) ------------------------------
inline constexpr char kRepair[] = "repair";
inline constexpr char kAttempted[] = "attempted";
inline constexpr char kBefore[] = "before";
inline constexpr char kAfter[] = "after";
inline constexpr char kSafety[] = "safety";
inline constexpr char kDeadlockUndecided[] = "deadlock_undecided";
inline constexpr char kCandidatesTried[] = "candidates_tried";
inline constexpr char kCandidatesVerified[] = "candidates_verified";
inline constexpr char kRepairs[] = "repairs";
inline constexpr char kKind[] = "kind";
inline constexpr char kTxns[] = "txns";
inline constexpr char kDescription[] = "description";
inline constexpr char kCost[] = "cost";
inline constexpr char kRepairedSystem[] = "repaired_system";

// ---- Verdict-store keys (two-tier cache, docs/caching.md) -----------------
// The `cache` block of the session/serve `stats` response — present only
// when a persistent store is attached — and the matching dotted metric
// names below. Pinned by wire_format_test.
inline constexpr char kCache[] = "cache";
inline constexpr char kDiskHits[] = "disk_hits";
inline constexpr char kDiskMisses[] = "disk_misses";
inline constexpr char kRecordsLoaded[] = "records_loaded";
inline constexpr char kRecordsFlushed[] = "records_flushed";
inline constexpr char kRecordsDropped[] = "records_dropped";
inline constexpr char kDiskRecords[] = "disk_records";
inline constexpr char kCacheFileGeneration[] = "cache_file_generation";

// ---- Trace span taxonomy --------------------------------------------------
// Every TraceSpan in the engine uses one of these literals (plus
// "pool.task", which lives in util/thread_pool.cc because util sits below
// core). Per-stage spans are "stage." + kDecisionStageNames[s], served
// pre-joined by kStageSpanNames.
inline constexpr char kSpanPoolTask[] = "pool.task";
inline constexpr const char* kStageSpanNames[] = {
    "stage.theorem1-scc",
    "stage.theorem2-two-site",
    "stage.corollary2-closure",
    "stage.brute-force-lemma1",
};
inline constexpr char kSpanClosureDominator[] = "closure.dominator";
inline constexpr char kSpanMultiPairs[] = "multi.pairs";
inline constexpr char kSpanMultiCycles[] = "multi.cycles";
inline constexpr char kSpanIncrementalDiff[] = "incremental.diff";
inline constexpr char kSpanIncrementalInvalidate[] = "incremental.invalidate";
inline constexpr char kSpanIncrementalPairs[] = "incremental.pairs";
inline constexpr char kSpanIncrementalCycles[] = "incremental.cycles";
inline constexpr char kSpanSessionCommand[] = "session.command";
inline constexpr char kSpanPass[] = "analysis.pass";
inline constexpr char kSpanDeadlock[] = "deadlock.search";
inline constexpr char kSpanRepairCandidate[] = "repair.candidate";
inline constexpr char kSpanRepairVerify[] = "repair.verify";

// ---- Metric name taxonomy (dotted, for obs::StatsSink) --------------------
// Pipeline counters expand to "pipeline.<stage>.<counter>" with the stage
// and counter names above. The rest:
inline constexpr char kMetricCacheHits[] = "cache.hits";
inline constexpr char kMetricCacheMisses[] = "cache.misses";
inline constexpr char kMetricCacheSize[] = "cache.size";
inline constexpr char kMetricCacheHitRate[] = "cache.hit_rate";
// Tier-2 persistent store counters (cache/verdict_store.h), exported by
// the store's owner via ExportStoreStats.
inline constexpr char kMetricCacheDiskHits[] = "cache.disk_hits";
inline constexpr char kMetricCacheDiskMisses[] = "cache.disk_misses";
inline constexpr char kMetricCacheRecordsLoaded[] = "cache.records_loaded";
inline constexpr char kMetricCacheRecordsFlushed[] = "cache.records_flushed";
inline constexpr char kMetricCacheRecordsDropped[] = "cache.records_dropped";
inline constexpr char kMetricCacheDiskRecords[] = "cache.disk_records";
inline constexpr char kMetricCacheFileGeneration[] = "cache.file_generation";
inline constexpr char kMetricPipelinePrefix[] = "pipeline";
inline constexpr char kMetricPairPrefix[] = "pair";
inline constexpr char kMetricMultiPrefix[] = "multi";
inline constexpr char kMetricDeltaPrefix[] = "delta";
inline constexpr char kMetricAnalysisPrefix[] = "analysis";
inline constexpr char kMetricRepairPrefix[] = "repair";
inline constexpr char kMetricSessionCommands[] = "session.commands";
inline constexpr char kMetricSessionChecks[] = "session.checks";
inline constexpr char kMetricSessionErrors[] = "session.errors";
// Serve layer: service-wide counters and queue gauges. The queue holds raw
// input lines (every line of an add/replace block is one entry) and client
// closes, not assembled commands, so serve.queue_peak can exceed
// serve.commands.
inline constexpr char kMetricServeCommands[] = "serve.commands";
inline constexpr char kMetricServeResponses[] = "serve.responses";
inline constexpr char kMetricServeClients[] = "serve.clients";
inline constexpr char kMetricServeErrors[] = "serve.errors";
inline constexpr char kMetricServeQueuePeak[] = "serve.queue_peak";

}  // namespace wire
}  // namespace dislock

#endif  // DISLOCK_CORE_WIRE_KEYS_H_
