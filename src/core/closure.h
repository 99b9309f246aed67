#ifndef DISLOCK_CORE_CLOSURE_H_
#define DISLOCK_CORE_CLOSURE_H_

#include <vector>

#include "txn/transaction.h"
#include "util/status.h"

namespace dislock {

/// Definition 3 check: {T1, T2} is *closed with respect to dominator X* iff
/// for all z in V-X and x, y in X,
///   (Lz precedes Ux in T1) and (Ly precedes Uz in T2)
/// imply
///   (Uy precedes Ux in T1) and (Ly precedes Lx in T2).
/// (V is the node set of D(T1,T2); X need not actually be verified to be a
/// dominator here.)
bool IsClosedWithRespectTo(const Transaction& t1, const Transaction& t2,
                           const std::vector<EntityId>& x_set);

/// Result of the Lemma 2/3 closure procedure.
struct ClosureResult {
  /// T1, T2 with the added precedences (supersets of the inputs' orders).
  Transaction t1;
  Transaction t2;
  /// Number of precedence arcs added across both transactions.
  int precedences_added = 0;
  /// Rounds of the fixpoint loop.
  int iterations = 0;
};

/// Runs the closure construction from the proof of Theorem 2: starting from
/// {T1, T2} with dominator X of D(T1, T2), repeatedly applies Lemma 2 —
/// whenever z in V-X, x, y in X satisfy (Lz <1 Ux) and (Ly <2 Uz), add the
/// precedences (Uy <1 Ux) and (Ly <2 Lx) — until the system is closed with
/// respect to X.
///
/// For two-site transactions Lemma 3 guarantees X remains a dominator of the
/// successive D graphs and the inferences of Lemma 2 never contradict the
/// existing orders, so the procedure always succeeds. For three or more
/// sites it may fail; failure is reported as:
///   * InvalidArgument  — X is not a dominator of D(T1,T2) to begin with;
///   * Undecided        — an inference of Lemma 2 is contradicted (the added
///                        precedence would create a cycle) or X stops being
///                        a dominator, so Corollary 2 cannot be applied.
///
/// The fixpoint loop runs on arena-backed reachability matrices over the two
/// step DAGs, updated incrementally per added precedence, and re-derives the
/// evolving D(T1,T2) from the same matrices instead of re-materializing a
/// ConflictGraph per round.
Result<ClosureResult> CloseWithRespectTo(const Transaction& t1,
                                         const Transaction& t2,
                                         const std::vector<EntityId>& x_set);

}  // namespace dislock

#endif  // DISLOCK_CORE_CLOSURE_H_
