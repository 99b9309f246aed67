#ifndef DISLOCK_CORE_INCREMENTAL_STORE_H_
#define DISLOCK_CORE_INCREMENTAL_STORE_H_

#include <cstdint>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/safety.h"
#include "txn/catalog.h"

namespace dislock {

/// Canonical key of a directed TxnId cycle: rotated so the smallest id
/// (unique — simple cycles repeat no vertex) comes first, direction
/// preserved. B_c is built from the cyclic subpath structure, so it is
/// invariant under rotation but not under reversal.
std::vector<TxnId> CanonicalCycleKey(const std::vector<TxnId>& cycle);

/// The verdict stores of one incremental engine, filled and read by
/// CheckProposition2 (core/multi.h). Plain ordered maps: iteration is key
/// order, so store contents (and everything derived from them) are
/// schedule-independent.
struct VerdictStore {
  /// Unordered pair key (first < second) -> full PairSafetyReport.
  std::map<std::pair<TxnId, TxnId>, PairSafetyReport> pairs;
  /// Canonical directed TxnId cycle -> HasCycle(B_c).
  std::map<std::vector<TxnId>, bool> cycles;

  void Clear() {
    pairs.clear();
    cycles.clear();
  }

  /// Drops exactly the entries that mention an edited id: the edited
  /// transactions' incident pairs and the cycles through them.
  void Invalidate(const std::unordered_set<TxnId>& edited);
};

}  // namespace dislock

#endif  // DISLOCK_CORE_INCREMENTAL_STORE_H_
