// Tests for the simulation substrate: the lock table, the random scheduler,
// symbolic execution, Monte-Carlo sampling, and the workload generators.

#include <gtest/gtest.h>

#include "core/paper.h"
#include "core/policy.h"
#include "sim/executor.h"
#include "sim/scheduler.h"
#include "core/safety.h"
#include "sim/workload.h"
#include "txn/builder.h"
#include "txn/linear_extension.h"
#include "txn/lock_table.h"
#include "util/string_util.h"

namespace dislock {
namespace {

TEST(LockTable, AcquireReleaseCycle) {
  const EntityId x = 0;
  const EntityId y = 1;
  const Step lock_x{StepKind::kLock, x};
  const Step unlock_x{StepKind::kUnlock, x};
  const Step update_x{StepKind::kUpdate, x};
  const Step write_y{StepKind::kLock, y};
  const Step read_y{StepKind::kLock, y, /*shared=*/true};
  const Step unread_y{StepKind::kUnlock, y, /*shared=*/true};
  LockTable locks(/*num_entities=*/2, /*num_txns=*/3);

  // Exclusive: one holder, released only by it.
  ASSERT_TRUE(locks.MayFire(0, lock_x));
  locks.Fire(0, lock_x);
  EXPECT_EQ(locks.WriterOf(x), 0);
  EXPECT_FALSE(locks.MayFire(1, lock_x));    // held
  EXPECT_FALSE(locks.MayFire(1, unlock_x));  // not the holder
  EXPECT_TRUE(locks.MayFire(1, update_x));   // updates always may fire
  EXPECT_TRUE(locks.MayFire(1, write_y));    // another entity, independent
  ASSERT_TRUE(locks.MayFire(0, unlock_x));
  locks.Fire(0, unlock_x);
  EXPECT_EQ(locks.WriterOf(x), LockTable::kFree);
  locks.Unfire(0, unlock_x);  // undoing the unlock takes x back
  EXPECT_EQ(locks.WriterOf(x), 0);
  locks.Unfire(0, lock_x);  // undoing the lock frees it
  EXPECT_TRUE(locks.MayFire(1, lock_x));

  // Shared: readers share; a writer waits for every one of them.
  locks.Fire(0, read_y);
  ASSERT_TRUE(locks.MayFire(1, read_y));
  locks.Fire(1, read_y);
  EXPECT_EQ(locks.ReaderCount(y), 2);
  EXPECT_TRUE(locks.IsReading(y, 1));
  EXPECT_FALSE(locks.MayFire(2, write_y));
  EXPECT_FALSE(locks.MayFire(2, unread_y));  // holds no read lock
  locks.Fire(0, unread_y);
  EXPECT_FALSE(locks.MayFire(2, write_y));  // the second reader remains
  locks.Unfire(1, read_y);                  // an abort releases it
  EXPECT_EQ(locks.ReaderCount(y), 0);
  ASSERT_TRUE(locks.MayFire(2, write_y));
  locks.Fire(2, write_y);
  EXPECT_FALSE(locks.MayFire(0, read_y));  // a writer excludes readers

  // Reset frees everything.
  locks.Fire(1, lock_x);
  locks.Reset();
  for (EntityId e : {x, y}) {
    EXPECT_EQ(locks.WriterOf(e), LockTable::kFree);
    EXPECT_EQ(locks.ReaderCount(e), 0);
    for (int t = 0; t < 3; ++t) EXPECT_FALSE(locks.IsReading(e, t));
  }
  EXPECT_TRUE(locks.MayFire(2, write_y));
}

TEST(Scheduler, CompletedRunsAreLegalSchedules) {
  PaperInstance inst = MakeFig1Instance();
  Rng rng(11);
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    RunResult run = SimulateRun(*inst.system, &rng);
    if (run.deadlocked) continue;
    ++completed;
    ASSERT_TRUE(run.schedule.has_value());
    EXPECT_TRUE(CheckScheduleLegal(*inst.system, *run.schedule).ok());
  }
  EXPECT_GT(completed, 100);
}

TEST(Scheduler, DetectsDeadlocks) {
  // T1 = Lx Ly ... , T2 = Ly Lx ...: some runs deadlock.
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system(&db);
  {
    TransactionBuilder b(&db, "T1");
    b.Lock("x");
    b.Lock("y");
    b.Unlock("y");
    b.Unlock("x");
    system.Add(b.Build());
  }
  {
    TransactionBuilder b(&db, "T2");
    b.Lock("y");
    b.Lock("x");
    b.Unlock("x");
    b.Unlock("y");
    system.Add(b.Build());
  }
  Rng rng(13);
  int deadlocks = 0;
  for (int i = 0; i < 500; ++i) {
    if (SimulateRun(system, &rng).deadlocked) ++deadlocks;
  }
  EXPECT_GT(deadlocks, 10);
}

TEST(MonteCarlo, SafeSystemNeverYieldsWitness) {
  DistributedDatabase db(2);
  std::vector<EntityId> all;
  for (int e = 0; e < 3; ++e) {
    all.push_back(
        db.MustAddEntity(StrCat("e", e), e % 2));
  }
  TransactionSystem system(&db);
  system.Add(MakeTwoPhaseTransaction(&db, "T1", all));
  system.Add(MakeTwoPhaseTransaction(&db, "T2", all));
  Rng rng(17);
  MonteCarloStats stats = SampleSafety(system, 3000, &rng,
                                       /*keep_going=*/true);
  EXPECT_EQ(stats.non_serializable, 0);
  EXPECT_GT(stats.completed, 0);
}

TEST(MonteCarlo, UnsafeSystemEventuallyYieldsWitness) {
  PaperInstance inst = MakeFig1Instance();
  Rng rng(19);
  MonteCarloStats stats = SampleSafety(*inst.system, 100000, &rng);
  ASSERT_TRUE(stats.witness.has_value());
  EXPECT_TRUE(CheckScheduleLegal(*inst.system, *stats.witness).ok());
  EXPECT_FALSE(IsSerializable(*inst.system, *stats.witness));
}

TEST(Executor, SerialExecutionsDifferAcrossOrders) {
  PaperInstance inst = MakeFig1Instance();
  auto s01 = SerialSchedule(*inst.system, {0, 1});
  auto s10 = SerialSchedule(*inst.system, {1, 0});
  ASSERT_TRUE(s01.ok() && s10.ok());
  ExecutionResult r01 = ExecuteSchedule(*inst.system, *s01);
  ExecutionResult r10 = ExecuteSchedule(*inst.system, *s10);
  EXPECT_NE(r01.final_state, r10.final_state);
}

TEST(Executor, AgreesWithConflictSerializability) {
  // Across many sampled schedules of several systems, the symbolic
  // execution notion coincides with conflict-serializability (they are
  // equivalent for this update model).
  for (auto make : {MakeFig1Instance, MakeFig3Instance, MakeFig5Instance}) {
    PaperInstance inst = make();
    Rng rng(23);
    int checked = 0;
    for (int i = 0; i < 3000 && checked < 120; ++i) {
      RunResult run = SimulateRun(*inst.system, &rng);
      if (run.deadlocked) continue;
      ++checked;
      bool conflict = IsSerializable(*inst.system, *run.schedule);
      auto exec = SerializableByExecution(*inst.system, *run.schedule);
      ASSERT_TRUE(exec.ok());
      EXPECT_EQ(conflict, exec.value())
          << inst.description << "\n"
          << run.schedule->ToString(*inst.system);
    }
    // Fig. 5's partial orders deadlock frequently; demand a modest floor.
    EXPECT_GT(checked, 20) << inst.description;
  }
}

TEST(Executor, SuperfluousLockingDivergesFromConflictAnalysis) {
  // A lock section with NO update inside cannot affect execution, so the
  // operational notion can call a conflict-non-serializable schedule
  // serializable — exactly why the paper's model demands an update between
  // every lock/unlock pair.
  DistributedDatabase db(1);
  db.MustAddEntity("x", 0);
  db.MustAddEntity("y", 0);
  TransactionSystem system(&db);
  for (const char* name : {"t1", "t2"}) {
    TransactionBuilder b(&db, name);
    b.Lock("x");
    b.Unlock("x");  // superfluous: no update
    b.Lock("y");
    b.Unlock("y");  // superfluous
    system.Add(b.Build());
  }
  // The separated interleaving: x sections in order (1,2), y in (2,1).
  Schedule h;
  h.Append(0, 0);
  h.Append(0, 1);
  h.Append(1, 0);
  h.Append(1, 1);
  h.Append(1, 2);
  h.Append(1, 3);
  h.Append(0, 2);
  h.Append(0, 3);
  ASSERT_TRUE(CheckScheduleLegal(system, h).ok());
  EXPECT_FALSE(IsSerializable(system, h));  // conflict view: a cycle
  auto by_exec = SerializableByExecution(system, h);
  ASSERT_TRUE(by_exec.ok());
  EXPECT_TRUE(by_exec.value());  // execution view: nothing ever changed
}

TEST(Workload, RandomWorkloadsValidate) {
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    WorkloadParams params;
    params.num_sites = 1 + static_cast<int>(rng.Uniform(4));
    params.num_entities = 1 + static_cast<int>(rng.Uniform(6));
    params.num_transactions = 1 + static_cast<int>(rng.Uniform(4));
    params.update_probability = 0.5;
    params.cross_site_arcs = static_cast<int>(rng.Uniform(4));
    Workload w = MakeRandomWorkload(params, &rng);
    ValidateOptions opts;
    EXPECT_TRUE(w.system->Validate(opts).ok())
        << w.system->Validate(opts).ToString() << w.system->ToString();
  }
}

TEST(Workload, TotalOrderPairsAreTotalAndValid) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    Workload w = MakeRandomTotalOrderPair(4, &rng);
    ASSERT_TRUE(w.system->Validate().ok());
    for (int t = 0; t < 2; ++t) {
      // A total order has exactly one linear extension.
      EXPECT_EQ(CountLinearExtensions(w.system->txn(t), 10), 1);
    }
  }
}

TEST(Workload, ScalingPairSafetyMatchesFlag) {
  Rng rng(37);
  Workload safe = MakeTwoSiteScalingPair(6, /*safe=*/true, &rng);
  Workload unsafe = MakeTwoSiteScalingPair(6, /*safe=*/false, &rng);
  EXPECT_TRUE(safe.system->Validate().ok());
  EXPECT_TRUE(unsafe.system->Validate().ok());
  auto safe_report = TwoSiteSafetyTest(safe.system->txn(0),
                                       safe.system->txn(1));
  ASSERT_TRUE(safe_report.ok());
  EXPECT_EQ(safe_report->verdict, SafetyVerdict::kSafe);
  auto unsafe_report = TwoSiteSafetyTest(unsafe.system->txn(0),
                                         unsafe.system->txn(1));
  ASSERT_TRUE(unsafe_report.ok()) << unsafe_report.status().ToString();
  EXPECT_EQ(unsafe_report->verdict, SafetyVerdict::kUnsafe);
}

}  // namespace
}  // namespace dislock
