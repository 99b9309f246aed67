#ifndef DISLOCK_CORE_CERTIFICATE_H_
#define DISLOCK_CORE_CERTIFICATE_H_

#include <string>
#include <vector>

#include "core/closure.h"
#include "geometry/curve.h"
#include "txn/schedule.h"
#include "txn/transaction.h"
#include "util/status.h"

namespace dislock {

/// A verifiable witness that a pair {T1, T2} is unsafe: a pair of total
/// orders compatible with the transactions, together with a legal,
/// non-serializable schedule of them (the "certificate of unsafeness" built
/// in the proof of Theorem 2).
struct UnsafetyCertificate {
  /// The dominator X of D(T1,T2) used for the separation.
  std::vector<EntityId> dominator;
  /// Total orders t1 in T1, t2 in T2 (chain transactions).
  Transaction t1;
  Transaction t2;
  /// The extension orders themselves (step ids of T1 / T2 in order).
  std::vector<StepId> order1;
  std::vector<StepId> order2;
  /// A legal non-serializable schedule of {t1, t2} (hence of {T1, T2}).
  Schedule schedule;
  /// The two rectangles the schedule separates (Proposition 1 witness).
  SeparationWitness separation;
};

/// Builds an unsafety certificate for {T1, T2} given a dominator X of
/// D(T1, T2) and `closed`, the system closed with respect to X
/// (CloseWithRespectTo(t1, t2, dominator), Lemmas 2-3), following the proof
/// of Theorem 2:
///  1. the caller closes the system with respect to X — the decision stages
///     need the closure's outcome anyway, so it is computed once;
///  2. topologically sort the closed T1 placing Ux (x in X) as early as
///     possible, and the closed T2 placing Lx (x in X) as late as possible,
///     breaking ties among Lx steps by the Ux order of t1;
///  3. find a monotone curve separating the X-rectangles from the rest in
///     the (t1, t2) picture and read it off as a schedule.
///
/// Guaranteed to succeed for transactions spanning at most two sites
/// (Theorem 2). With more sites it may return Undecided (no separating
/// curve), mirroring the paper's Fig. 5 phenomenon. The
/// returned certificate has been verified (legal + non-serializable).
Result<UnsafetyCertificate> BuildUnsafetyCertificate(
    const Transaction& t1, const Transaction& t2,
    const std::vector<EntityId>& dominator, const ClosureResult& closed);

/// Builds a certificate directly from a given pair of linear extensions of
/// {T1, T2}: finds a dominator of D(t1, t2) whose rectangle partition admits
/// a separating curve (trying every dominator, both orientations). Succeeds
/// whenever D(t1, t2) is not strongly connected — for total orders strong
/// connectivity is necessary and sufficient for safety.
Result<UnsafetyCertificate> BuildCertificateFromExtensions(
    const Transaction& t1, const Transaction& t2,
    const std::vector<StepId>& order1, const std::vector<StepId>& order2);

/// Independently re-verifies a certificate against the original pair:
/// the total orders are linear extensions of T1/T2, the schedule is a legal
/// schedule of {t1, t2}, and it is not serializable.
Status VerifyUnsafetyCertificate(const Transaction& t1, const Transaction& t2,
                                 const UnsafetyCertificate& cert);

/// Pretty-prints a certificate (dominator, total orders, schedule,
/// separated rectangles).
std::string CertificateToString(const UnsafetyCertificate& cert,
                                const DistributedDatabase& db);

}  // namespace dislock

#endif  // DISLOCK_CORE_CERTIFICATE_H_
