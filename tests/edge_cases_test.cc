// Edge cases across the analyzers: degenerate systems, single/no common
// entities, nested rectangles, empty transactions, centralized pairs.

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/certificate.h"
#include "core/closure.h"
#include "core/deadlock.h"
#include "core/multi.h"
#include "core/safety.h"
#include "geometry/picture.h"
#include "sim/scheduler.h"
#include "txn/builder.h"

namespace dislock {
namespace {

TEST(EdgeCases, EmptyTransactionsAreSafe) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  Transaction t1(&db, "T1");
  Transaction t2(&db, "T2");
  PairSafetyReport report = AnalyzePairSafety(t1, t2);
  EXPECT_EQ(report.verdict, SafetyVerdict::kSafe);
  EXPECT_EQ(report.d.graph.NumNodes(), 0);

  TransactionSystem system(&db);
  system.Add(t1);
  system.Add(t2);
  auto deadlock = AnalyzeDeadlockFreedom(system);
  ASSERT_TRUE(deadlock.ok());
  EXPECT_TRUE(deadlock->deadlock_free);
}

TEST(EdgeCases, SingleCommonEntityIsAlwaysSafe) {
  // |V| = 1: nothing to separate; exhaustively verified.
  DistributedDatabase db(2);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("a", 1);
  db.MustAddEntity("b", 1);
  TransactionBuilder b1(&db, "T1");
  b1.LockUpdateUnlock("x");
  b1.LockUpdateUnlock("a");
  TransactionBuilder b2(&db, "T2");
  b2.LockUpdateUnlock("b");
  b2.LockUpdateUnlock("x");
  Transaction t1 = b1.Build();
  Transaction t2 = b2.Build();
  PairSafetyReport report = AnalyzePairSafety(t1, t2);
  EXPECT_EQ(report.verdict, SafetyVerdict::kSafe);
  EXPECT_EQ(report.d.graph.NumNodes(), 1);

  TransactionSystem system(&db);
  system.Add(t1);
  system.Add(t2);
  auto oracle = ExhaustiveScheduleSafety(system, 1 << 20);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(oracle->safe);
}

TEST(EdgeCases, NestedRectanglesCentralized) {
  // t1 nests y's section inside x's; t2 nests x inside y. Classic unsafe?
  // D arcs: (x,y): Lx <1 Uy yes; Ly <2 Ux yes -> arc. (y,x): Ly <1 Ux yes;
  // Lx <2 Uy yes -> arc. Strongly connected -> SAFE.
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionBuilder b1(&db, "t1");
  b1.Lock("x");
  b1.Lock("y");
  b1.Unlock("y");
  b1.Unlock("x");
  TransactionBuilder b2(&db, "t2");
  b2.Lock("y");
  b2.Lock("x");
  b2.Unlock("x");
  b2.Unlock("y");
  PairSafetyReport report = AnalyzePairSafety(b1.Build(), b2.Build());
  EXPECT_EQ(report.verdict, SafetyVerdict::kSafe);

  // ... but it deadlocks (safety and deadlock freedom are orthogonal).
  TransactionSystem system(&db);
  system.Add(b1.Build());
  system.Add(b2.Build());
  auto deadlock = AnalyzeDeadlockFreedom(system);
  ASSERT_TRUE(deadlock.ok());
  EXPECT_FALSE(deadlock->deadlock_free);
}

TEST(EdgeCases, CentralizedPartialOrdersAreChains) {
  // With one site, validity forces a total order; the analyzer goes through
  // the theorem-2 branch and matches the schedule oracle.
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  db.MustAddEntity("z", 0);
  TransactionBuilder b1(&db, "t1");
  b1.Lock("x");
  b1.Unlock("x");
  b1.Lock("y");
  b1.Unlock("y");
  b1.Lock("z");
  b1.Unlock("z");
  TransactionBuilder b2(&db, "t2");
  b2.Lock("z");
  b2.Unlock("z");
  b2.Lock("y");
  b2.Unlock("y");
  b2.Lock("x");
  b2.Unlock("x");
  PairSafetyReport report = AnalyzePairSafety(b1.Build(), b2.Build());
  EXPECT_EQ(report.sites_spanned, 1);
  EXPECT_EQ(report.verdict, SafetyVerdict::kUnsafe);
  ASSERT_TRUE(report.certificate.has_value());

  TransactionSystem system(&db);
  system.Add(b1.Build());
  system.Add(b2.Build());
  auto oracle = ExhaustiveScheduleSafety(system, 1 << 20);
  ASSERT_TRUE(oracle.ok());
  EXPECT_FALSE(oracle->safe);
}

TEST(EdgeCases, ThreeTransactionConflictCycleIsReported) {
  DistributedDatabase db(1);
  db.MustAddEntity("a", 0);
  db.MustAddEntity("b", 0);
  db.MustAddEntity("c", 0);
  TransactionSystem system(&db);
  auto add_seq = [&](const char* name, const char* e1, const char* e2) {
    TransactionBuilder b(&db, name);
    b.LockUpdateUnlock(e1);
    b.LockUpdateUnlock(e2);
    system.Add(b.Build());
  };
  add_seq("T1", "a", "b");
  add_seq("T2", "b", "c");
  add_seq("T3", "c", "a");
  // Handcraft the cyclic schedule: T1's a, T2's b, T3's c, then the
  // second sections in the same order.
  Schedule h;
  for (StepId s = 0; s < 3; ++s) h.Append(0, s);
  for (StepId s = 0; s < 3; ++s) h.Append(1, s);
  for (StepId s = 0; s < 3; ++s) h.Append(2, s);
  for (StepId s = 3; s < 6; ++s) h.Append(0, s);
  for (StepId s = 3; s < 6; ++s) h.Append(1, s);
  for (StepId s = 3; s < 6; ++s) h.Append(2, s);
  ASSERT_TRUE(CheckScheduleLegal(system, h).ok());
  SerializabilityAnalysis analysis = AnalyzeSerializability(system, h);
  EXPECT_FALSE(analysis.serializable);
  EXPECT_EQ(analysis.conflict_cycle.size(), 3u);
}

TEST(EdgeCases, UpdatesDoNotAffectSafety) {
  // Per [17-19], update steps inside lock sections are irrelevant to
  // safety: verdicts match with and without them.
  DistributedDatabase db(2);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 1);
  auto build = [&](bool with_updates, const char* name) {
    TransactionBuilder b(&db, name);
    b.Lock("x");
    if (with_updates) b.Update("x");
    b.Unlock("x");
    b.Lock("y");
    if (with_updates) b.Update("y");
    b.Unlock("y");
    return b.Build();
  };
  PairSafetyReport with = AnalyzePairSafety(build(true, "T1"),
                                            build(true, "T2"));
  PairSafetyReport without = AnalyzePairSafety(build(false, "T1"),
                                               build(false, "T2"));
  EXPECT_EQ(with.verdict, without.verdict);
  EXPECT_EQ(with.method, without.method);
}

TEST(EdgeCases, CertificateForNonDominatorFails) {
  DistributedDatabase db(2);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 1);
  TransactionBuilder b1(&db, "T1");
  b1.LockUpdateUnlock("x");
  b1.LockUpdateUnlock("y");
  TransactionBuilder b2(&db, "T2");
  b2.LockUpdateUnlock("x");
  b2.LockUpdateUnlock("y");
  EntityId x = db.Find("x").value();
  EntityId y = db.Find("y").value();
  // {x, y} = V is not a proper subset, so the closure every certificate
  // is built from rejects it.
  auto closed = CloseWithRespectTo(b1.Build(), b2.Build(), {x, y});
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kInvalidArgument);
}

TEST(EdgeCases, MultiSafetyOnSingleTransaction) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  TransactionSystem system(&db);
  TransactionBuilder b(&db, "T1");
  b.LockUpdateUnlock("x");
  system.Add(b.Build());
  MultiSafetyReport report = AnalyzeMultiSafety(system);
  EXPECT_EQ(report.verdict, SafetyVerdict::kSafe);
  EXPECT_EQ(report.pairs_checked, 0);
}

TEST(EdgeCases, SimulatorHandlesSingleStepTransactions) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  TransactionSystem system(&db);
  Transaction t(&db, "T");
  // A single unlocked update (lenient mode; legal to simulate).
  t.AddStep(StepKind::kUpdate, 0);
  system.Add(t);
  Rng rng(1);
  RunResult run = SimulateRun(system, &rng);
  EXPECT_FALSE(run.deadlocked);
  EXPECT_EQ(run.steps_executed, 1);
}

}  // namespace
}  // namespace dislock
