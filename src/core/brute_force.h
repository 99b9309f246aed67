#ifndef DISLOCK_CORE_BRUTE_FORCE_H_
#define DISLOCK_CORE_BRUTE_FORCE_H_

#include <cstdint>
#include <optional>

#include "core/certificate.h"
#include "txn/schedule.h"
#include "txn/system.h"
#include "util/status.h"

namespace dislock {

/// Outcome of an exhaustive safety decision.
struct ExhaustiveResult {
  /// True iff every schedule is serializable.
  bool safe = false;
  /// When unsafe: a verified certificate (for pair oracles) ...
  std::optional<UnsafetyCertificate> certificate;
  /// ... or a bare non-serializable schedule (for the schedule oracle).
  std::optional<Schedule> witness;
  /// Work counters (pairs of total orders, or schedules, examined).
  int64_t combinations_checked = 0;
};

/// Lemma 1 oracle for a pair: enumerates every pair of linear extensions
/// (t1, t2) and tests each totally ordered pair exactly — for total orders
/// strong connectivity of D(t1, t2) is necessary and sufficient (Section 3).
/// Exact for ANY number of sites but exponential; `max_pairs` bounds the
/// number of extension pairs (ResourceExhausted beyond it), and also the
/// extensions of either transaction alone. Extensions are streamed, never
/// stored, so memory stays O(steps) at any budget.
Result<ExhaustiveResult> ExhaustivePairSafety(const Transaction& t1,
                                              const Transaction& t2,
                                              int64_t max_pairs);

/// Ground-truth oracle from first principles: enumerates every legal
/// schedule of the system and checks serializability of each. Exponentially
/// more expensive than ExhaustivePairSafety; used to validate everything
/// else on tiny instances. `max_schedules` bounds the enumeration.
Result<ExhaustiveResult> ExhaustiveScheduleSafety(
    const TransactionSystem& system, int64_t max_schedules);

}  // namespace dislock

#endif  // DISLOCK_CORE_BRUTE_FORCE_H_
