#ifndef DISLOCK_TXN_SCHEDULE_H_
#define DISLOCK_TXN_SCHEDULE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "txn/system.h"
#include "util/status.h"

namespace dislock {

/// One event of a schedule: step `step` of transaction `txn`.
struct SysStep {
  int txn;
  StepId step;
  bool operator==(const SysStep&) const = default;
};

/// A schedule h: a total ordering of all the steps of a transaction system
/// that (a) does not contradict any transaction's partial order and (b)
/// respects lock exclusion (Section 2). Legality is checked by
/// CheckScheduleLegal, not enforced by this container.
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::vector<SysStep> events)
      : events_(std::move(events)) {}

  void Append(int txn, StepId step) { events_.push_back({txn, step}); }
  size_t size() const { return events_.size(); }
  const SysStep& at(size_t i) const { return events_[i]; }
  const std::vector<SysStep>& events() const { return events_; }

  /// Renders like the paper's Fig. 1: steps with transaction subscripts,
  /// e.g. "Lx_1 x_1 Ly_2 ...".
  std::string ToString(const TransactionSystem& system) const;

 private:
  std::vector<SysStep> events_;
};

/// Checks that `schedule` is a legal schedule of `system`: every step occurs
/// exactly once, all partial orders are respected, each lock is taken only
/// when free and released only by its holder.
///
/// The lock replay here deliberately does not use LockTable
/// (txn/lock_table.h), which every schedule generator runs on (the deadlock
/// search, the enumerator, the simulator). This is the independent checker
/// of their output — certificate verification and the tests call it — and
/// a checker sharing the generators' rule would agree with its bugs.
Status CheckScheduleLegal(const TransactionSystem& system,
                          const Schedule& schedule);

/// Outcome of the serializability test of a schedule.
struct SerializabilityAnalysis {
  /// True iff the schedule is (conflict-)serializable. For this update model
  /// — each step reads and rewrites its entity as a function of everything
  /// the transaction saw before — conflict- and view/final-state
  /// serializability coincide (Papadimitriou 1983, used as Proposition 1
  /// here), so this is exactly the paper's notion.
  bool serializable = false;
  /// When serializable: a witnessing serial order of transaction indices.
  std::vector<int> serial_order;
  /// The transaction-level precedence (conflict) digraph: arc i -> j iff
  /// some access of Ti to an entity precedes a conflicting access of Tj.
  Digraph precedence;
  /// When not serializable: one precedence cycle, as transaction indices.
  std::vector<int> conflict_cycle;
};

/// Analyzes the serializability of a legal schedule.
///
/// Accesses are per-entity "sections": a transaction's lock..unlock interval
/// on x (or the span of its updates of x when x is unlocked, which the model
/// permits only for entities private to one transaction). Two sections on
/// the same entity by different transactions conflict; the direction is the
/// order of the disjoint sections in the schedule, and overlapping sections
/// (possible only for unlocked updates) conflict both ways.
SerializabilityAnalysis AnalyzeSerializability(const TransactionSystem& system,
                                               const Schedule& schedule);

/// Convenience: AnalyzeSerializability(...).serializable.
bool IsSerializable(const TransactionSystem& system, const Schedule& schedule);

/// Builds the serial schedule that runs the transactions one after another
/// in the order given by `txn_order` (each transaction's steps in one of its
/// linear extensions).
Result<Schedule> SerialSchedule(const TransactionSystem& system,
                                const std::vector<int>& txn_order);

/// Visitor for EnumerateSchedules; return false to stop early.
using ScheduleVisitor = std::function<bool(const Schedule&)>;

/// Exhaustively enumerates all legal schedules of `system` (ground-truth
/// oracle for small instances). Runs that reach a state where no step can
/// proceed (a lock deadlock) are *not* schedules and are skipped; their
/// count is reported through `deadlock_dead_ends` if non-null.
///
/// Returns ResourceExhausted if more than `max_schedules` schedules exist.
Status EnumerateSchedules(const TransactionSystem& system,
                          int64_t max_schedules,
                          const ScheduleVisitor& visit,
                          int64_t* deadlock_dead_ends = nullptr);

}  // namespace dislock

#endif  // DISLOCK_TXN_SCHEDULE_H_
