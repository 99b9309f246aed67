#include "sim/scheduler.h"

#include "txn/lock_table.h"

namespace dislock {

namespace {

/// Remaining-predecessor count of every step, per transaction. Executing a
/// step sets its own count to -1.
std::vector<std::vector<int>> Indegrees(const TransactionSystem& system) {
  std::vector<std::vector<int>> indegree(system.NumTransactions());
  for (int i = 0; i < system.NumTransactions(); ++i) {
    const Digraph& g = system.txn(i).order();
    indegree[i].assign(g.NumNodes(), 0);
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (NodeId v : g.OutNeighbors(u)) ++indegree[i][v];
    }
  }
  return indegree;
}

/// Fills `enabled` with every step whose predecessors have all run and that
/// the lock table lets fire, in (transaction, step) order, and `blocked`
/// with every transaction that has a ready step the table holds back.
void CollectEnabled(const TransactionSystem& system,
                    const std::vector<std::vector<int>>& indegree,
                    const LockTable& locks, std::vector<SysStep>* enabled,
                    std::vector<int>* blocked) {
  enabled->clear();
  blocked->clear();
  for (int i = 0; i < system.NumTransactions(); ++i) {
    const Transaction& t = system.txn(i);
    bool held_back = false;
    for (StepId s = 0; s < t.NumSteps(); ++s) {
      if (indegree[i][s] != 0) continue;
      if (!locks.MayFire(i, t.GetStep(s))) {
        held_back = true;
        continue;
      }
      enabled->push_back({i, s});
    }
    if (held_back) blocked->push_back(i);
  }
}

/// Executes `pick` against the lock table and the predecessor counts.
void Execute(const TransactionSystem& system, SysStep pick, LockTable* locks,
             std::vector<std::vector<int>>* indegree) {
  const Transaction& t = system.txn(pick.txn);
  locks->Fire(pick.txn, t.GetStep(pick.step));
  (*indegree)[pick.txn][pick.step] = -1;
  for (NodeId v : t.order().OutNeighbors(pick.step)) {
    --(*indegree)[pick.txn][v];
  }
}

}  // namespace

RunResult SimulateRun(const TransactionSystem& system, Rng* rng) {
  RunResult result;
  LockTable locks(system.db().NumEntities(), system.NumTransactions());
  std::vector<std::vector<int>> indegree = Indegrees(system);
  int remaining = system.TotalSteps();

  Schedule schedule;
  std::vector<SysStep> enabled;
  std::vector<int> blocked;
  while (remaining > 0) {
    CollectEnabled(system, indegree, locks, &enabled, &blocked);
    if (enabled.empty()) {
      result.deadlocked = true;
      return result;
    }
    SysStep pick = enabled[rng->Index(enabled.size())];
    Execute(system, pick, &locks, &indegree);
    schedule.Append(pick.txn, pick.step);
    ++result.steps_executed;
    --remaining;
  }
  result.schedule = std::move(schedule);
  return result;
}

RecoveryRunResult SimulateRunWithRecovery(const TransactionSystem& system,
                                          Rng* rng, int max_aborts) {
  RecoveryRunResult result;
  LockTable locks(system.db().NumEntities(), system.NumTransactions());
  const std::vector<std::vector<int>> base_indegree = Indegrees(system);
  std::vector<std::vector<int>> indegree = base_indegree;
  int remaining = system.TotalSteps();

  std::vector<SysStep> events;  // includes aborted attempts, pruned later
  std::vector<bool> aborted_marker;
  std::vector<SysStep> enabled;
  std::vector<int> blocked;  // transactions blocked on a lock

  while (remaining > 0) {
    CollectEnabled(system, indegree, locks, &enabled, &blocked);
    if (enabled.empty()) {
      // Deadlock: abort a random blocked victim.
      if (blocked.empty() || result.aborts >= max_aborts) {
        result.gave_up = true;
        return result;
      }
      int victim = blocked[rng->Index(blocked.size())];
      ++result.aborts;
      const Transaction& t = system.txn(victim);
      // Release the victim's locks and restore its work to "not executed".
      int executed_steps = 0;
      for (StepId s = 0; s < t.NumSteps(); ++s) {
        if (indegree[victim][s] == -1) ++executed_steps;
      }
      for (EntityId e : t.LockedEntities()) {
        StepId l = t.LockStep(e);
        if (indegree[victim][l] == -1 &&
            indegree[victim][t.UnlockStep(e)] != -1) {
          locks.Unfire(victim, t.GetStep(l));
        }
      }
      indegree[victim] = base_indegree[victim];
      remaining += executed_steps;
      // Mark the victim's past events as aborted.
      for (size_t i = 0; i < events.size(); ++i) {
        if (events[i].txn == victim) aborted_marker[i] = true;
      }
      continue;
    }

    SysStep pick = enabled[rng->Index(enabled.size())];
    Execute(system, pick, &locks, &indegree);
    events.push_back(pick);
    aborted_marker.push_back(false);
    ++result.steps_executed;
    --remaining;
  }

  Schedule committed;
  for (size_t i = 0; i < events.size(); ++i) {
    if (!aborted_marker[i]) committed.Append(events[i].txn, events[i].step);
  }
  result.schedule = std::move(committed);
  return result;
}

MonteCarloStats SampleSafety(const TransactionSystem& system, int64_t runs,
                             Rng* rng, bool keep_going) {
  MonteCarloStats stats;
  for (int64_t r = 0; r < runs; ++r) {
    ++stats.runs;
    RunResult run = SimulateRun(system, rng);
    if (run.deadlocked) {
      ++stats.deadlocked;
      continue;
    }
    ++stats.completed;
    if (!IsSerializable(system, *run.schedule)) {
      ++stats.non_serializable;
      if (!stats.witness.has_value()) stats.witness = *run.schedule;
      if (!keep_going) return stats;
    }
  }
  return stats;
}

}  // namespace dislock
