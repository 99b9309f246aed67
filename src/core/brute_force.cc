#include "core/brute_force.h"

#include <algorithm>

#include "core/conflict_graph.h"
#include "graph/scc.h"
#include "txn/linear_extension.h"

namespace dislock {

namespace {

/// Per-entity lock/unlock step ids of a commonly locked entity, for the
/// position-based fast path.
struct CommonEntity {
  EntityId entity;
  StepId l1, u1, l2, u2;
};

std::vector<CommonEntity> CommonEntities(const Transaction& t1,
                                         const Transaction& t2) {
  std::vector<CommonEntity> out;
  for (EntityId e : ConflictingEntities(t1, t2)) {
    out.push_back({e, t1.LockStep(e), t1.UnlockStep(e), t2.LockStep(e),
                   t2.UnlockStep(e)});
  }
  return out;
}

/// Tests safety of the totally ordered pair given by position arrays:
/// safe iff D(t1, t2) is strongly connected (exact for total orders).
/// Runs Tarjan on the k-node D graph built in O(k^2).
bool TotalOrderPairSafe(const std::vector<CommonEntity>& common,
                        const std::vector<int>& pos1,
                        const std::vector<int>& pos2) {
  const int k = static_cast<int>(common.size());
  if (k <= 1) return true;
  Digraph d(k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i == j) continue;
      if (pos1[common[i].l1] < pos1[common[j].u1] &&
          pos2[common[j].l2] < pos2[common[i].u2]) {
        d.AddArc(i, j);
      }
    }
  }
  return IsStronglyConnected(d);
}

void PositionsOf(const std::vector<StepId>& order, std::vector<int>* pos) {
  pos->resize(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    (*pos)[order[i]] = static_cast<int>(i);
  }
}

}  // namespace

Result<ExhaustiveResult> ExhaustivePairSafety(const Transaction& t1,
                                              const Transaction& t2,
                                              int64_t max_pairs) {
  ExhaustiveResult result;
  result.safe = true;
  std::vector<CommonEntity> common = CommonEntities(t1, t2);

  // t2's extensions are re-enumerated inside each extension of t1 rather
  // than stored, so memory stays O(steps) however many pairs the budget
  // allows. A counting pass first rejects a t2 with more than max_pairs
  // extensions before any pair is examined.
  DISLOCK_RETURN_NOT_OK(EnumerateLinearExtensions(
      t2, max_pairs, [](const std::vector<StepId>&) { return true; }));

  bool exhausted = false;
  std::vector<int> pos1, pos2;
  std::vector<StepId> unsafe_order1, unsafe_order2;
  Status st1 = EnumerateLinearExtensions(
      t1, max_pairs, [&](const std::vector<StepId>& order1) {
        PositionsOf(order1, &pos1);
        // Within the cap: the counting pass saw at most max_pairs.
        (void)EnumerateLinearExtensions(
            t2, max_pairs, [&](const std::vector<StepId>& order2) {
              if (result.combinations_checked >= max_pairs) {
                exhausted = true;
                return false;
              }
              ++result.combinations_checked;
              PositionsOf(order2, &pos2);
              if (TotalOrderPairSafe(common, pos1, pos2)) return true;
              result.safe = false;
              unsafe_order1 = order1;
              unsafe_order2 = order2;
              return false;
            });
        return result.safe && !exhausted;
      });
  DISLOCK_RETURN_NOT_OK(st1);
  if (!result.safe) {
    // Build and verify a full certificate for the unsafe extension pair.
    auto cert =
        BuildCertificateFromExtensions(t1, t2, unsafe_order1, unsafe_order2);
    if (!cert.ok()) return cert.status();
    result.certificate = std::move(cert).value();
    return result;
  }
  if (exhausted) {
    return Status::ResourceExhausted(
        "extension-pair budget exhausted before a decision");
  }
  return result;
}

Result<ExhaustiveResult> ExhaustiveScheduleSafety(
    const TransactionSystem& system, int64_t max_schedules) {
  ExhaustiveResult result;
  result.safe = true;
  Status st = EnumerateSchedules(
      system, max_schedules, [&](const Schedule& schedule) {
        ++result.combinations_checked;
        if (!IsSerializable(system, schedule)) {
          result.safe = false;
          result.witness = schedule;
          return false;
        }
        return true;
      });
  if (!st.ok() && result.safe) return st;  // budget exceeded, undecided
  return result;
}

}  // namespace dislock
