// Tests for the many-transaction analysis (Section 6, Proposition 2):
// transaction conflict graph G, the B_ijk / B_c graphs, and the combined
// safety test, cross-validated against the schedule-enumeration oracle.

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/decision/context.h"
#include "core/incremental/engine.h"
#include "core/multi.h"
#include "core/paper.h"
#include "core/policy.h"
#include "graph/cycles.h"
#include "obs/trace.h"
#include "reference_kernels.h"
#include "sim/workload.h"
#include "txn/builder.h"
#include "txn/catalog.h"
#include "util/string_util.h"

namespace dislock {
namespace {

TEST(ConflictGraphG, EdgesNeedCommonLockedEntity) {
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system(&db);
  TransactionBuilder b1(&db, "T1");
  b1.LockUpdateUnlock("x");
  system.Add(b1.Build());
  TransactionBuilder b2(&db, "T2");
  b2.LockUpdateUnlock("x");
  b2.LockUpdateUnlock("y");
  system.Add(b2.Build());
  TransactionBuilder b3(&db, "T3");
  b3.LockUpdateUnlock("y");
  system.Add(b3.Build());
  Digraph g = BuildTransactionConflictGraph(system);
  EXPECT_TRUE(g.HasArc(0, 1));
  EXPECT_TRUE(g.HasArc(1, 0));
  EXPECT_TRUE(g.HasArc(1, 2));
  EXPECT_FALSE(g.HasArc(0, 2));  // no common entity
}

TEST(MultiSafety, PairwiseUnsafetyIsDetectedFirst) {
  // The Fig. 1 unsafe pair, plus a third transaction touching only y.
  PaperInstance inst = MakeFig1Instance();
  TransactionBuilder b3(inst.db.get(), "T3");
  b3.LockUpdateUnlock("y");
  inst.system->Add(b3.Build());
  MultiSafetyReport report = AnalyzeMultiSafety(*inst.system);
  EXPECT_EQ(report.verdict, SafetyVerdict::kUnsafe);
  ASSERT_TRUE(report.failing_pair.has_value());
  EXPECT_EQ(report.failing_pair->first, 0);
  EXPECT_EQ(report.failing_pair->second, 1);
}

TEST(MultiSafety, StronglyTwoPhaseSystemsAreSafe) {
  for (int k : {2, 3, 4}) {
    DistributedDatabase db(2);
    std::vector<EntityId> all;
    for (int e = 0; e < 3; ++e) {
      all.push_back(
          db.MustAddEntity(StrCat("e", e), e % 2));
    }
    TransactionSystem system(&db);
    for (int t = 0; t < k; ++t) {
      system.Add(MakeTwoPhaseTransaction(
          &db, StrCat("T", t + 1), all));
    }
    MultiSafetyReport report = AnalyzeMultiSafety(system);
    EXPECT_EQ(report.verdict, SafetyVerdict::kSafe) << k << " transactions";
    if (k >= 3) {
      EXPECT_GT(report.cycles_checked, 0);  // no 3-cycles at k=2
    }
  }
}

TEST(MultiSafety, ThreeTxnCycleUnsafety) {
  // Classic 3-transaction anomaly: pairwise-safe (each pair shares only one
  // entity) but the global cycle is non-serializable. T1: x then y... use
  // three entities a, b, c with Ti taking (a,b), (b,c), (c,a) sequentially.
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

  // Each pair shares exactly one entity => pairwise trivially safe.
  MultiSafetyReport report = AnalyzeMultiSafety(system);
  EXPECT_EQ(report.verdict, SafetyVerdict::kUnsafe);
  EXPECT_EQ(report.failing_cycle.size(), 3u);

  // Ground truth: the schedule oracle agrees.
  auto oracle = ExhaustiveScheduleSafety(system, 1 << 22);
  ASSERT_TRUE(oracle.ok());
  EXPECT_FALSE(oracle->safe);
}

TEST(MultiSafety, ThreeTwoPhaseTxnsOnSharedEntitiesAreSafe) {
  // Same access pattern but strongly two-phase: safe, and every 3-cycle's
  // B_c graph must have a cycle.
  DistributedDatabase db(1);
  EntityId a = db.MustAddEntity("a", 0);
  EntityId b_ = db.MustAddEntity("b", 0);
  EntityId c = db.MustAddEntity("c", 0);
  TransactionSystem system(&db);
  system.Add(MakeTwoPhaseTransaction(&db, "T1", {a, b_}));
  system.Add(MakeTwoPhaseTransaction(&db, "T2", {b_, c}));
  system.Add(MakeTwoPhaseTransaction(&db, "T3", {c, a}));
  MultiSafetyReport report = AnalyzeMultiSafety(system);
  EXPECT_EQ(report.verdict, SafetyVerdict::kSafe);
  auto oracle = ExhaustiveScheduleSafety(system, 1 << 22);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(oracle->safe);
}

TEST(MultiSafety, AgreesWithScheduleOracleOnRandomSystems) {
  Rng rng(777);
  int safe_seen = 0;
  int unsafe_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    WorkloadParams params;
    params.num_sites = 1;  // centralized: Prop. 2's home turf
    params.num_entities = 3;
    params.num_transactions = 3;
    params.lock_probability = 0.6;
    params.cross_site_arcs = 0;
    Workload w = MakeRandomWorkload(params, &rng);
    ASSERT_TRUE(w.system->Validate().ok());
    auto oracle = ExhaustiveScheduleSafety(*w.system, 1 << 20);
    if (!oracle.ok()) continue;  // too many schedules; skip
    MultiSafetyReport report = AnalyzeMultiSafety(*w.system);
    if (report.verdict == SafetyVerdict::kUnknown) continue;
    EXPECT_EQ(report.verdict == SafetyVerdict::kSafe, oracle->safe)
        << "trial " << trial << "\n"
        << w.system->ToString();
    (oracle->safe ? safe_seen : unsafe_seen) += 1;
  }
  EXPECT_GT(safe_seen, 3);
  EXPECT_GT(unsafe_seen, 3);
}

TEST(BuildCycleGraph, NodesGlueAtSharedPairs) {
  DistributedDatabase db(1);
  EntityId a = db.MustAddEntity("a", 0);
  EntityId b_ = db.MustAddEntity("b", 0);
  EntityId c = db.MustAddEntity("c", 0);
  TransactionSystem system(&db);
  system.Add(MakeTwoPhaseTransaction(&db, "T1", {a, b_}));
  system.Add(MakeTwoPhaseTransaction(&db, "T2", {b_, c}));
  system.Add(MakeTwoPhaseTransaction(&db, "T3", {c, a}));
  Digraph bc = reference::BuildCycleGraph(system.View(), {0, 1, 2});
  // Pairs share exactly one entity each: 3 nodes total.
  EXPECT_EQ(bc.NumNodes(), 3);
  EXPECT_TRUE(HasCycle(bc));
  // The engine's kernel agrees with the literal B_c.
  SystemView view = system.View();
  FlatCycleChecker checker(view, {{0, 1}, {0, 2}, {1, 2}});
  EXPECT_TRUE(checker.BcHasCycle({0, 1, 2}));
}

// Every pair procedure run opens exactly one "stage.theorem1-scc" span (the
// first stage is always applicable), so counting them counts pair runs.
int PairRuns(const obs::TraceRecorder& recorder) {
  int runs = 0;
  for (const obs::TraceEvent& e : recorder.Events()) {
    runs += std::string(e.name) == "stage.theorem1-scc" ? 1 : 0;
  }
  return runs;
}

// Batch analysis and incremental checks run one Proposition-2 routine; it
// must keep both contracts. A serial batch run stops at the first failing
// pair and never decides the rest, while a check decides every pair it has
// no verdict for.
TEST(Proposition2, BatchStopsAtFirstFailingPairCheckIsExhaustive) {
  // The Fig. 1 unsafe pair is the first conflicting pair (T1, T2); T3 and
  // T4 add four more conflicting pairs behind it.
  PaperInstance inst = MakeFig1Instance();
  for (const char* name : {"T3", "T4"}) {
    TransactionBuilder b(inst.db.get(), name);
    b.LockUpdateUnlock("x");
    b.LockUpdateUnlock("w");
    inst.system->Add(b.Build());
  }
  EXPECT_EQ(BuildTransactionConflictGraph(*inst.system).NumArcs(), 2 * 6);

  obs::TraceRecorder batch_trace;
  EngineConfig config;
  config.trace = &batch_trace;
  MultiSafetyReport batch = AnalyzeMultiSafety(*inst.system, config);
  EXPECT_EQ(batch.verdict, SafetyVerdict::kUnsafe);
  ASSERT_TRUE(batch.failing_pair.has_value());
  EXPECT_EQ(*batch.failing_pair, std::make_pair(0, 1));
  EXPECT_EQ(batch.pairs_checked, 1);
  EXPECT_EQ(PairRuns(batch_trace), 1);

  obs::TraceRecorder check_trace;
  config.trace = &check_trace;
  TransactionCatalog catalog(inst.db.get());
  for (int i = 0; i < inst.system->NumTransactions(); ++i) {
    ASSERT_TRUE(catalog.Add(inst.system->txn(i)).ok());
  }
  EngineContext ctx(config);
  IncrementalSafetyEngine engine(&catalog, &ctx);
  MultiSafetyReport check = engine.Check();
  EXPECT_EQ(check.failing_pair, batch.failing_pair);
  EXPECT_EQ(check.pairs_checked, 1);
  ASSERT_TRUE(check.delta.has_value());
  EXPECT_EQ(check.delta->pairs_recomputed, 6);
  EXPECT_EQ(PairRuns(check_trace), 6);
}

}  // namespace
}  // namespace dislock
