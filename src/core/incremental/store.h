#ifndef DISLOCK_CORE_INCREMENTAL_STORE_H_
#define DISLOCK_CORE_INCREMENTAL_STORE_H_

#include <cstdint>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/multi.h"
#include "txn/catalog.h"

namespace dislock {

class EngineContext;

/// Canonical key of a directed TxnId cycle: rotated so the smallest id
/// (unique — simple cycles repeat no vertex) comes first, direction
/// preserved. B_c is built from the cyclic subpath structure, so it is
/// invariant under rotation but not under reversal.
std::vector<TxnId> CanonicalCycleKey(const std::vector<TxnId>& cycle);

/// The verdict stores of one incremental engine. Plain ordered maps:
/// iteration is key order, so store contents (and everything derived from
/// them) are schedule-independent.
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

/// Decides every pair whose key is missing from `store->pairs` — no early
/// exit, fanned out over `ctx`'s pool when it has one — and stores the
/// reports. `pairs[i]` are dense view indices, `keys[i]` the matching
/// unordered TxnId key. Returns the number recomputed (the rest reused).
/// Mirrors the batch path's per-pair config (cache stripped, serial
/// pipeline under a pool), so a stored report is bit-identical to the one
/// a scratch run would compute.
int64_t DecideDirtyPairs(const SystemView& view,
                         const std::vector<std::pair<int, int>>& pairs,
                         const std::vector<std::pair<TxnId, TxnId>>& keys,
                         EngineContext* ctx, VerdictStore* store);

/// Condition-(b) analogue: decides HasCycle(B_c) for every cycle of
/// `to_check` (dense-index cycles; `keys[i]` their canonical TxnId keys)
/// whose key is missing from `store->cycles`, and stores the bits — again
/// exhaustively, for store determinism. `pairs` are the conflicting pairs
/// of G; the FlatCycleChecker is built from them only when the config
/// selects the flat kernel and there is dirty work. Returns the number
/// recomputed.
int64_t DecideDirtyCycles(const SystemView& view,
                          const std::vector<std::pair<int, int>>& pairs,
                          const std::vector<std::vector<int>>& to_check,
                          const std::vector<std::vector<TxnId>>& keys,
                          EngineContext* ctx, VerdictStore* store);

/// Builds the deterministic serial-replay scan over stored verdicts exactly
/// as a fresh-context scratch run would: fingerprint groups when the config
/// asks for a verdict cache (whose initial state in a fresh context is
/// empty, hence cached_safe is never set), singleton groups otherwise.
/// Pair index p resolves to `store.pairs.at(keys[p])`, which must hold
/// every key and stay unchanged through the replay. Returns the scan and
/// its group count.
std::pair<std::vector<ScanPair>, int> BuildStoredPairScan(
    const SystemView& view, const std::vector<std::pair<int, int>>& pairs,
    const std::vector<std::pair<TxnId, TxnId>>& keys,
    const VerdictStore& store, const EngineConfig& options);

}  // namespace dislock

#endif  // DISLOCK_CORE_INCREMENTAL_STORE_H_
