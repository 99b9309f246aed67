// Tests for the safety analyzers: Theorem 1 sufficiency, the Theorem 2
// two-site decision procedure, the dominator-closure loop, the exhaustive
// oracles, and two-phase policies.

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/paper.h"
#include "core/policy.h"
#include "core/safety.h"
#include "txn/builder.h"
#include "util/string_util.h"

namespace dislock {
namespace {

TEST(SitesSpanned, CountsDistinctSites) {
  PaperInstance inst = MakeFig5Instance();
  EXPECT_EQ(SitesSpanned(inst.system->txn(0), inst.system->txn(1)), 4);
  PaperInstance fig2 = MakeFig2Instance();
  EXPECT_EQ(SitesSpanned(fig2.system->txn(0), fig2.system->txn(1)), 1);
}

TEST(Theorem1, StronglyTwoPhasePairsAreAlwaysSafe) {
  for (int sites : {1, 2, 3, 5}) {
    DistributedDatabase db(sites);
    std::vector<EntityId> all;
    for (int e = 0; e < 6; ++e) {
      all.push_back(
          db.MustAddEntity(StrCat("e", e), e % sites));
    }
    Transaction t1 = MakeTwoPhaseTransaction(&db, "T1", all);
    Transaction t2 = MakeTwoPhaseTransaction(&db, "T2", all);
    EXPECT_TRUE(ValidateTransaction(t1).ok());
    EXPECT_TRUE(IsStronglyTwoPhase(t1));
    EXPECT_TRUE(IsTwoPhase(t1));
    EXPECT_TRUE(Theorem1Sufficient(t1, t2)) << sites << " sites";
    PairSafetyReport report = AnalyzePairSafety(t1, t2);
    EXPECT_EQ(report.verdict, SafetyVerdict::kSafe);
    EXPECT_EQ(report.method, DecisionMethod::kTheorem1);
  }
}

TEST(Theorem1, NoCommonEntitiesIsTriviallySafe) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionBuilder b1(&db, "T1");
  b1.Lock("x");
  b1.Unlock("x");
  TransactionBuilder b2(&db, "T2");
  b2.Lock("y");
  b2.Unlock("y");
  EXPECT_TRUE(Theorem1Sufficient(b1.Build(), b2.Build()));
  PairSafetyReport report = AnalyzePairSafety(b1.Build(), b2.Build());
  EXPECT_EQ(report.verdict, SafetyVerdict::kSafe);
}

TEST(TwoSite, RejectsPairsSpanningMoreSites) {
  PaperInstance inst = MakeFig5Instance();
  auto report = TwoSiteSafetyTest(inst.system->txn(0), inst.system->txn(1));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(TwoSite, UnsafeVerdictCarriesCertificate) {
  PaperInstance inst = MakeFig1Instance();
  auto report = TwoSiteSafetyTest(inst.system->txn(0), inst.system->txn(1));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, SafetyVerdict::kUnsafe);
  EXPECT_EQ(report->method, DecisionMethod::kTheorem2);
  ASSERT_TRUE(report->certificate.has_value());
  EXPECT_FALSE(report->certificate->schedule.events().empty());
}

TEST(Analyzer, WeakTwoPhaseDistributedIsNotEnough) {
  // Per-site 2PL without a global lock point: each site chain is
  // two-phase, but the sections are concurrent and the pair is unsafe
  // (this is exactly the Fig. 3 reconstruction).
  PaperInstance inst = MakeFig3Instance();
  EXPECT_TRUE(IsTwoPhase(inst.system->txn(0)));            // weak: yes
  EXPECT_FALSE(IsStronglyTwoPhase(inst.system->txn(0)));   // strong: no
  PairSafetyReport report =
      AnalyzePairSafety(inst.system->txn(0), inst.system->txn(1));
  EXPECT_EQ(report.verdict, SafetyVerdict::kUnsafe);
}

TEST(Analyzer, UnknownWhenAllFallbacksDisabled) {
  PaperInstance inst = MakeFig5Instance();
  SafetyOptions options;
  options.max_extension_pairs = 0;
  options.max_dominators = 0;  // closure loop sees an incomplete enumeration
  PairSafetyReport report =
      AnalyzePairSafety(inst.system->txn(0), inst.system->txn(1), options);
  EXPECT_EQ(report.verdict, SafetyVerdict::kUnknown);
}

TEST(Exhaustive, AgreesWithTheorem2OnPaperInstances) {
  for (auto make : {MakeFig1Instance, MakeFig2Instance, MakeFig3Instance}) {
    PaperInstance inst = make();
    auto exhaustive = ExhaustivePairSafety(inst.system->txn(0),
                                           inst.system->txn(1), 1 << 20);
    ASSERT_TRUE(exhaustive.ok());
    EXPECT_FALSE(exhaustive->safe) << inst.description;
    ASSERT_TRUE(exhaustive->certificate.has_value());
  }
}

TEST(Exhaustive, ScheduleOracleAgreesOnPaperInstances) {
  struct Case {
    PaperInstance inst;
    bool safe;
  };
  std::vector<Case> cases;
  cases.push_back({MakeFig1Instance(), false});
  cases.push_back({MakeFig3Instance(), false});
  for (auto& c : cases) {
    auto oracle = ExhaustiveScheduleSafety(*c.inst.system, 1 << 22);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(oracle->safe, c.safe) << c.inst.description;
  }
}

TEST(Exhaustive, BudgetIsReported) {
  PaperInstance inst = MakeFig5Instance();
  auto result = ExhaustivePairSafety(inst.system->txn(0),
                                     inst.system->txn(1), 10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Policy, MakeTwoPhaseTransactionIsValidEverywhere) {
  DistributedDatabase db(3);
  std::vector<EntityId> all;
  for (int e = 0; e < 7; ++e) {
    all.push_back(
        db.MustAddEntity(StrCat("e", e), e % 3));
  }
  Transaction t = MakeTwoPhaseTransaction(&db, "T", all);
  ValidateOptions strict;
  strict.require_update_between_locks = true;
  EXPECT_TRUE(ValidateTransaction(t, strict).ok())
      << ValidateTransaction(t, strict).ToString();
  EXPECT_TRUE(IsStronglyTwoPhase(t));
}

TEST(Policy, NonTwoPhaseIsDetected) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionBuilder b(&db, "T");
  b.Lock("x");
  b.Unlock("x");
  b.Lock("y");  // lock after an unlock: not two-phase
  b.Unlock("y");
  EXPECT_FALSE(IsTwoPhase(b.Build()));
  EXPECT_FALSE(IsStronglyTwoPhase(b.Build()));
}

TEST(Verdicts, NamesAreStable) {
  EXPECT_STREQ(SafetyVerdictName(SafetyVerdict::kSafe), "SAFE");
  EXPECT_STREQ(SafetyVerdictName(SafetyVerdict::kUnsafe), "UNSAFE");
  EXPECT_STREQ(SafetyVerdictName(SafetyVerdict::kUnknown), "UNKNOWN");
}

}  // namespace
}  // namespace dislock
