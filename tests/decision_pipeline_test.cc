// Tests for the tiered DecisionPipeline (core/decision/): per-stage
// statistics (attempts / decided / skipped / budget-exhausted / work),
// stage applicability and early exit, the streamed dominator search on
// Theorem 3 gadgets at the default budget, pipeline-vs-legacy-cascade
// verdict equality on randomized workloads, and stats aggregation in
// MultiSafetyReport.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/brute_force.h"
#include "core/certificate.h"
#include "core/decision/context.h"
#include "core/decision/pipeline.h"
#include "core/decision/procedure.h"
#include "core/multi.h"
#include "core/paper.h"
#include "core/policy.h"
#include "core/report.h"
#include "core/safety.h"
#include "cache/verdict_cache.h"
#include "gen/family.h"
#include "sim/workload.h"
#include "util/string_util.h"

namespace dislock {
namespace {

const StageCounters& Stage(const PairSafetyReport& report,
                           DecisionStageId id) {
  return report.pipeline.at(id);
}

// Every stage sees each pair exactly once: it either attempts or skips.
void ExpectOneTouchPerStage(const PipelineStats& stats, int64_t pairs) {
  for (int s = 0; s < kNumDecisionStages; ++s) {
    const StageCounters& c = stats.stages[static_cast<size_t>(s)];
    EXPECT_EQ(c.attempts + c.skipped, pairs)
        << DecisionStageName(static_cast<DecisionStageId>(s));
    EXPECT_LE(c.decided, c.attempts)
        << DecisionStageName(static_cast<DecisionStageId>(s));
  }
}

TEST(PipelineStats, DecidedAtFirstStageSkipsEverythingLater) {
  // A strongly-two-phase pair is decided by Theorem 1 immediately.
  DistributedDatabase db(3);
  std::vector<EntityId> all;
  for (int e = 0; e < 4; ++e) {
    all.push_back(db.MustAddEntity(StrCat("e", e), e % 3));
  }
  Transaction t1 = MakeTwoPhaseTransaction(&db, "T1", all);
  Transaction t2 = MakeTwoPhaseTransaction(&db, "T2", all);
  PairSafetyReport report = AnalyzePairSafety(t1, t2);
  ASSERT_EQ(report.verdict, SafetyVerdict::kSafe);
  ASSERT_EQ(report.method, DecisionMethod::kTheorem1);

  EXPECT_EQ(Stage(report, DecisionStageId::kTheorem1Scc).attempts, 1);
  EXPECT_EQ(Stage(report, DecisionStageId::kTheorem1Scc).decided, 1);
  EXPECT_EQ(Stage(report, DecisionStageId::kTheorem1Scc).work, 1);
  for (DecisionStageId later :
       {DecisionStageId::kTheorem2TwoSite, DecisionStageId::kCorollary2Closure,
        DecisionStageId::kBruteForceLemma1}) {
    EXPECT_EQ(Stage(report, later).attempts, 0) << DecisionStageName(later);
    EXPECT_EQ(Stage(report, later).skipped, 1) << DecisionStageName(later);
    EXPECT_EQ(Stage(report, later).decided, 0) << DecisionStageName(later);
  }
  ExpectOneTouchPerStage(report.pipeline, 1);
}

TEST(PipelineStats, TwoSiteStageIsTerminalAndLaterStagesSkip) {
  // Fig. 1 spans one site and is unsafe: Theorem 1 attempts but cannot
  // decide, Theorem 2 decides, everything after is skipped.
  PaperInstance inst = MakeFig1Instance();
  PairSafetyReport report =
      AnalyzePairSafety(inst.system->txn(0), inst.system->txn(1));
  ASSERT_EQ(report.verdict, SafetyVerdict::kUnsafe);
  ASSERT_EQ(report.method, DecisionMethod::kTheorem2);

  EXPECT_EQ(Stage(report, DecisionStageId::kTheorem1Scc).attempts, 1);
  EXPECT_EQ(Stage(report, DecisionStageId::kTheorem1Scc).decided, 0);
  EXPECT_EQ(Stage(report, DecisionStageId::kTheorem2TwoSite).attempts, 1);
  EXPECT_EQ(Stage(report, DecisionStageId::kTheorem2TwoSite).decided, 1);
  EXPECT_EQ(Stage(report, DecisionStageId::kCorollary2Closure).skipped, 1);
  EXPECT_EQ(Stage(report, DecisionStageId::kBruteForceLemma1).skipped, 1);
  ExpectOneTouchPerStage(report.pipeline, 1);
}

TEST(PipelineStats, ClosureStageDecidesFig5AndCountsItsWork) {
  // Fig. 5 spans four sites and is safe via the dominator-closure loop;
  // the two-site stage must report itself inapplicable (skipped), not
  // attempted-and-failed.
  PaperInstance inst = MakeFig5Instance();
  PairSafetyReport report =
      AnalyzePairSafety(inst.system->txn(0), inst.system->txn(1));
  ASSERT_EQ(report.verdict, SafetyVerdict::kSafe);
  ASSERT_EQ(report.method, DecisionMethod::kDominatorClosure);

  EXPECT_EQ(Stage(report, DecisionStageId::kTheorem1Scc).attempts, 1);
  EXPECT_EQ(Stage(report, DecisionStageId::kTheorem2TwoSite).skipped, 1);
  EXPECT_EQ(Stage(report, DecisionStageId::kTheorem2TwoSite).attempts, 0);
  const StageCounters& closure =
      Stage(report, DecisionStageId::kCorollary2Closure);
  EXPECT_EQ(closure.attempts, 1);
  EXPECT_EQ(closure.decided, 1);
  EXPECT_GE(closure.work, 1);  // dominators closed
  EXPECT_EQ(Stage(report, DecisionStageId::kBruteForceLemma1).skipped, 1);
  ExpectOneTouchPerStage(report.pipeline, 1);
}

TEST(PipelineStats, BudgetExhaustionIsCountedNotSwallowed) {
  // Zeroed dominator budget: the closure stage attempts, exhausts, and
  // does not decide. A tiny extension-pair budget does the same for the
  // Lemma 1 fallback. The final verdict is kUnknown with method "none",
  // and both starved stages report budget_exhausted — nothing fails
  // silently.
  PaperInstance inst = MakeFig5Instance();
  SafetyOptions options;
  options.max_dominators = 0;
  options.max_extension_pairs = 1;
  PairSafetyReport report =
      AnalyzePairSafety(inst.system->txn(0), inst.system->txn(1), options);
  EXPECT_EQ(report.verdict, SafetyVerdict::kUnknown);
  EXPECT_EQ(report.method, DecisionMethod::kNone);

  const StageCounters& closure =
      Stage(report, DecisionStageId::kCorollary2Closure);
  EXPECT_EQ(closure.attempts, 1);
  EXPECT_EQ(closure.decided, 0);
  EXPECT_EQ(closure.budget_exhausted, 1);
  const StageCounters& brute =
      Stage(report, DecisionStageId::kBruteForceLemma1);
  EXPECT_EQ(brute.attempts, 1);
  EXPECT_EQ(brute.decided, 0);
  EXPECT_EQ(brute.budget_exhausted, 1);
  // The detail explains the last failing fallback rather than a generic
  // shrug.
  EXPECT_NE(report.detail.find("ResourceExhausted"), std::string::npos)
      << report.detail;
  ExpectOneTouchPerStage(report.pipeline, 1);
}

TEST(PipelineStats, ExhaustedDominatorBudgetIsNamedInTheDetail) {
  // With the Lemma 1 fallback off, an undecided pair's detail names the
  // budget that ran out and its value.
  PaperInstance inst = MakeFig5Instance();
  SafetyOptions options;
  options.max_dominators = 0;
  options.max_extension_pairs = 0;
  PairSafetyReport report =
      AnalyzePairSafety(inst.system->txn(0), inst.system->txn(1), options);
  EXPECT_EQ(report.verdict, SafetyVerdict::kUnknown);
  EXPECT_EQ(report.detail,
            "dominator search exceeded max_dominators = 0 without a closed "
            "dominator");
  const StageCounters& closure =
      Stage(report, DecisionStageId::kCorollary2Closure);
  EXPECT_EQ(closure.budget_exhausted, 1);
  EXPECT_EQ(closure.work, 0);
}

// Theorem 3 run backwards: dominators of the reduced pair encode truth
// assignments, so the default budget must find a satisfying one quickly.
// (Reduction.UnsatisfiableFormulaGivesSafePair pins the SAFE side.)
TEST(DominatorSearch, SatisfiableGadgetIsUnsafeWithAVerifiedCertificate) {
  auto workload =
      gen::BuildFamily("sat_gadget", {{"vars", 8}, {"clauses", 16}}, 1);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const Transaction& t1 = workload->system->txn(0);
  const Transaction& t2 = workload->system->txn(1);
  PairSafetyReport report = AnalyzePairSafety(t1, t2);
  ASSERT_EQ(report.verdict, SafetyVerdict::kUnsafe) << report.detail;
  EXPECT_EQ(report.method, DecisionMethod::kCorollary2);
  ASSERT_TRUE(report.certificate.has_value());
  EXPECT_TRUE(VerifyUnsafetyCertificate(t1, t2, *report.certificate).ok());
  // Streaming stops at the certifying dominator, well inside the budget.
  EXPECT_LT(Stage(report, DecisionStageId::kCorollary2Closure).work,
            EngineConfig{}.max_dominators);
  EXPECT_EQ(Stage(report, DecisionStageId::kBruteForceLemma1).skipped, 1);
  // Thousands of dominators span many pool batches; the first certifying
  // index still wins, so the report is bit-identical to the serial one.
  EngineConfig parallel;
  parallel.num_threads = 4;
  EXPECT_EQ(PairReportToJson(AnalyzePairSafety(t1, t2, parallel),
                             workload->system->db()),
            PairReportToJson(report, workload->system->db()));
}

// The pre-refactor cascade, reimplemented from the public primitives it
// was built out of: Theorem 1, then the complete two-site test, then (for
// >= 3 sites) the Lemma 1 enumeration as ground truth. The pipeline with
// the closure stage starved must reproduce it verdict-for-verdict; with
// all stages enabled it may only improve kUnknown, never flip a decided
// verdict.
SafetyVerdict LegacyCascade(const Transaction& t1, const Transaction& t2,
                            int64_t max_extension_pairs) {
  if (Theorem1Sufficient(t1, t2)) return SafetyVerdict::kSafe;
  if (SitesSpanned(t1, t2) <= 2) {
    auto two_site = TwoSiteSafetyTest(t1, t2);
    return two_site.ok() ? two_site->verdict : SafetyVerdict::kUnknown;
  }
  auto oracle = ExhaustivePairSafety(t1, t2, max_extension_pairs);
  if (!oracle.ok()) return SafetyVerdict::kUnknown;
  return oracle->safe ? SafetyVerdict::kSafe : SafetyVerdict::kUnsafe;
}

class LegacyEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(LegacyEquivalenceSweep, PipelineMatchesLegacyCascade) {
  Rng rng(4000 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    WorkloadParams params;
    params.num_sites = 1 + static_cast<int>(rng.Uniform(4));
    params.num_entities = 2 + static_cast<int>(rng.Uniform(3));
    params.num_transactions = 2;
    params.lock_probability = 0.6 + 0.4 * rng.UniformDouble();
    params.shared_probability = rng.Bernoulli(0.3) ? 0.4 : 0.0;
    params.cross_site_arcs = static_cast<int>(rng.Uniform(3));
    Workload w = MakeRandomWorkload(params, &rng);
    ASSERT_TRUE(w.system->Validate().ok());
    const Transaction& t1 = w.system->txn(0);
    const Transaction& t2 = w.system->txn(1);

    SafetyOptions minimal;
    minimal.max_extension_pairs = 1 << 15;
    minimal.max_dominators = 0;  // closure enumeration off
    PairSafetyReport pipeline_report = AnalyzePairSafety(t1, t2, minimal);
    EXPECT_EQ(pipeline_report.verdict,
              LegacyCascade(t1, t2, minimal.max_extension_pairs))
        << w.system->ToString();

    // The full pipeline must agree wherever the minimal one decided.
    PairSafetyReport full_report = AnalyzePairSafety(t1, t2);
    if (pipeline_report.verdict != SafetyVerdict::kUnknown) {
      EXPECT_EQ(full_report.verdict, pipeline_report.verdict)
          << w.system->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LegacyEquivalenceSweep,
                         ::testing::Range(0, 6));

TEST(PipelineApi, DefaultStageNamesAreStableAndOrdered) {
  std::vector<std::string> names = DecisionPipeline::Default().StageNames();
  ASSERT_EQ(names.size(), static_cast<size_t>(kNumDecisionStages));
  EXPECT_EQ(names[0], "theorem1-scc");
  EXPECT_EQ(names[1], "theorem2-two-site");
  EXPECT_EQ(names[2], "corollary2-closure");
  EXPECT_EQ(names[3], "brute-force-lemma1");
}

TEST(PipelineApi, CancelledContextYieldsUnknownNotPartialVerdict) {
  PaperInstance inst = MakeFig5Instance();
  EngineContext ctx;
  ctx.cancel_token()->Cancel();
  PairSafetyReport report = DecisionPipeline::Default().Decide(
      inst.system->txn(0), inst.system->txn(1), &ctx);
  EXPECT_EQ(report.verdict, SafetyVerdict::kUnknown);
  EXPECT_EQ(report.method, DecisionMethod::kNone);
  for (int s = 0; s < kNumDecisionStages; ++s) {
    EXPECT_EQ(report.pipeline.stages[static_cast<size_t>(s)].attempts, 0);
    EXPECT_EQ(report.pipeline.stages[static_cast<size_t>(s)].skipped, 1);
  }
}

TEST(PipelineJson, StatsBlockIsDeterministicAndOmitsWallClock) {
  PaperInstance inst = MakeFig5Instance();
  PairSafetyReport report =
      AnalyzePairSafety(inst.system->txn(0), inst.system->txn(1));
  std::string json = PipelineStatsToJson(report.pipeline);
  EXPECT_NE(json.find("\"stage\": \"corollary2-closure\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\""), std::string::npos);
  EXPECT_EQ(json.find("wall_ms"), std::string::npos);
  // Identical analysis -> identical stats JSON (wall-clock never leaks in).
  PairSafetyReport again =
      AnalyzePairSafety(inst.system->txn(0), inst.system->txn(1));
  EXPECT_EQ(json, PipelineStatsToJson(again.pipeline));
}

TEST(MultiAggregation, PipelineStatsSumOverCheckedPairs) {
  PaperInstance inst = MakeFig4Instance();
  MultiSafetyReport report = AnalyzeMultiSafety(*inst.system);
  ASSERT_GE(report.pairs_checked, 1);
  ExpectOneTouchPerStage(report.pipeline, report.pairs_checked);
  // Every checked pair was decided by exactly one stage (this system has
  // no unknowns), so the decided counters sum to pairs_checked.
  int64_t decided = 0;
  for (int s = 0; s < kNumDecisionStages; ++s) {
    decided += report.pipeline.stages[static_cast<size_t>(s)].decided;
  }
  EXPECT_EQ(decided, report.pairs_checked);
}

TEST(MultiAggregation, CacheHitsContributeNoPipelineStats) {
  PaperInstance inst = MakeFig4Instance();
  PairVerdictCache cache;
  MultiSafetyOptions options;
  options.cache = &cache;
  MultiSafetyReport cold = AnalyzeMultiSafety(*inst.system, options);
  MultiSafetyReport warm = AnalyzeMultiSafety(*inst.system, options);
  EXPECT_EQ(warm.verdict, cold.verdict);
  EXPECT_GE(warm.pairs_cached, 1);
  ExpectOneTouchPerStage(cold.pipeline, cold.pairs_checked);
  ExpectOneTouchPerStage(warm.pipeline, warm.pairs_checked);
  EXPECT_LT(warm.pairs_checked, cold.pairs_checked + cold.pairs_cached +
                                    1);  // strictly fewer pipeline runs
}

TEST(MultiAggregation, SerialAndParallelStatsAreIdentical) {
  PaperInstance inst = MakeFig5Instance();
  MultiSafetyOptions serial;
  serial.num_threads = 1;
  MultiSafetyOptions parallel = serial;
  parallel.num_threads = 4;
  MultiSafetyReport a = AnalyzeMultiSafety(*inst.system, serial);
  MultiSafetyReport b = AnalyzeMultiSafety(*inst.system, parallel);
  EXPECT_EQ(MultiReportToJson(a, *inst.system),
            MultiReportToJson(b, *inst.system));
  for (int s = 0; s < kNumDecisionStages; ++s) {
    const StageCounters& ca = a.pipeline.stages[static_cast<size_t>(s)];
    const StageCounters& cb = b.pipeline.stages[static_cast<size_t>(s)];
    EXPECT_EQ(ca.attempts, cb.attempts);
    EXPECT_EQ(ca.decided, cb.decided);
    EXPECT_EQ(ca.skipped, cb.skipped);
    EXPECT_EQ(ca.budget_exhausted, cb.budget_exhausted);
    EXPECT_EQ(ca.work, cb.work);
  }
}

}  // namespace
}  // namespace dislock
