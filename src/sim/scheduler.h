#ifndef DISLOCK_SIM_SCHEDULER_H_
#define DISLOCK_SIM_SCHEDULER_H_

#include <optional>

#include "txn/schedule.h"
#include "txn/system.h"
#include "util/random.h"
#include "util/status.h"

namespace dislock {

/// Outcome of one simulated concurrent run.
struct RunResult {
  /// Completed legal schedule; empty when the run deadlocked.
  std::optional<Schedule> schedule;
  /// Steps executed before the run finished or stuck.
  int steps_executed = 0;
  /// True iff the run reached a state where every pending step is blocked
  /// on a lock (a distributed deadlock).
  bool deadlocked = false;
};

/// Simulates one concurrent execution of the system: repeatedly picks a
/// uniformly random *enabled* step (all its transaction predecessors done,
/// and the lock table lets it fire) and executes it against the one
/// LockTable (txn/lock_table.h). Runs until all steps are done or
/// everything is blocked.
///
/// This is the operational counterpart of the paper's schedules: every
/// completed run is a legal schedule, and every legal schedule has nonzero
/// probability of being produced.
RunResult SimulateRun(const TransactionSystem& system, Rng* rng);

/// Statistics from Monte-Carlo safety sampling.
struct MonteCarloStats {
  int64_t runs = 0;
  int64_t completed = 0;
  int64_t deadlocked = 0;
  int64_t non_serializable = 0;
  /// First non-serializable schedule found, if any.
  std::optional<Schedule> witness;
};

/// Outcome of a run under deadlock recovery.
struct RecoveryRunResult {
  /// The COMMITTED schedule: only the steps of each transaction's final,
  /// successful attempt, in execution order. Aborted attempts' steps are
  /// discarded (their locks were released at abort, so the committed
  /// schedule is still a legal schedule of the system). Empty if gave_up.
  std::optional<Schedule> schedule;
  /// Number of aborts performed.
  int aborts = 0;
  /// Steps executed including aborted work.
  int steps_executed = 0;
  /// True if max_aborts was hit before completion.
  bool gave_up = false;
};

/// Like SimulateRun, but with abort-and-restart deadlock recovery: when
/// every pending step is blocked, a random blocked transaction is aborted —
/// its locks released and its progress reset — and execution continues.
/// This is the standard victim-restart discipline of real lock managers;
/// the committed schedule it produces is a legal schedule of the system, so
/// all the safety machinery applies to it unchanged.
RecoveryRunResult SimulateRunWithRecovery(const TransactionSystem& system,
                                          Rng* rng, int max_aborts = 64);

/// Samples `runs` simulated executions and checks each completed schedule
/// for serializability. For a safe system non_serializable is always 0; for
/// an unsafe system the sampler eventually finds a witness (each
/// non-serializable schedule has nonzero probability). Stops early at the
/// first witness unless `keep_going`.
MonteCarloStats SampleSafety(const TransactionSystem& system, int64_t runs,
                             Rng* rng, bool keep_going = false);

}  // namespace dislock

#endif  // DISLOCK_SIM_SCHEDULER_H_
