#ifndef DISLOCK_CORE_INCREMENTAL_ENGINE_H_
#define DISLOCK_CORE_INCREMENTAL_ENGINE_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/incremental/delta.h"
#include "core/incremental/store.h"
#include "core/multi.h"
#include "txn/catalog.h"

namespace dislock {

/// Cumulative reuse accounting over the lifetime of one engine, summed from
/// the per-Check DeltaStats (the `dislock session` stats command prints
/// these).
struct EngineTotals {
  int64_t checks = 0;
  int64_t pairs_reused = 0;
  int64_t pairs_recomputed = 0;
  int64_t cycles_reused = 0;
  int64_t cycles_recomputed = 0;
};

/// Delta re-analysis of a TransactionCatalog: the engine watches the
/// catalog through snapshots and, on each Check(), re-runs the pair
/// decision procedure only for conflicting pairs whose membership changed
/// since the last Check, and re-examines only directed cycles of the
/// conflict graph G that contain an edited transaction.
///
/// Mechanism — no edit log is consumed. Transactions are shared immutably
/// (shared_ptr<const Transaction>) between catalog and snapshots, so two
/// snapshots can be diffed by pointer identity per TxnId: an id present in
/// both with the same pointer is untouched; a differing pointer is a
/// Replace; ids appearing/disappearing are Add/Remove. The engine keeps a
/// VerdictStore (core/incremental/store.h):
///   * a pair store keyed by the unordered {TxnId, TxnId} pair, holding the
///     full PairSafetyReport of every conflicting pair ever decided whose
///     two members are still live and unedited, and
///   * a cycle store keyed by the canonical rotation (smallest id first,
///     direction preserved) of a directed TxnId cycle of G, holding whether
///     its B_c graph had a cycle.
/// An edit to transaction t invalidates exactly the store entries that
/// mention t's id: its incident pairs and the cycles through it. For a
/// single-transaction edit that is at most degree_G(t) pairs, so
/// DeltaStats::pairs_recomputed <= degree(t) + 1 (the +1 absorbs an edit
/// that adds one new conflict edge).
///
/// Equivalence contract: Check() returns the same MultiSafetyReport —
/// verdict, failing pair/cycle, every counter, and the aggregated pipeline
/// statistics — as a from-scratch AnalyzeMultiSafety of the catalog's
/// materialization under a *fresh* EngineContext with the same config,
/// except for the extra `delta` block (absent on batch reports). This holds
/// because both run one routine, CheckProposition2 (core/multi.h): the
/// batch call passes no store, this engine passes its VerdictStore, and
/// the routine reduces either way by replaying the same serial memoized
/// scan — over verdicts it just computed, or over stored ones, which
/// fingerprint-equal pairs provably share (cache/verdict_cache.h). A shared
/// external config.cache is deliberately NOT consulted: its pre-populated
/// entries are not reconstructible from the catalog alone and would break
/// the fresh-context equivalence.
///
/// Determinism: dirty pairs and cycles are recomputed exhaustively — no
/// early exit — so the store contents after a Check are a pure function of
/// (previous stores, catalog contents, config), and with them every report
/// field including DeltaStats is bit-identical at any thread count. The
/// cancellation short-circuit the batch path uses is unavailable here by
/// design: skipping work based on another thread's verdict would make the
/// stores schedule-dependent.
///
/// Not thread-safe (one Check at a time); Check() itself parallelizes
/// internally over the context's pool.
class IncrementalSafetyEngine {
 public:
  /// `catalog` and `ctx` must outlive the engine.
  IncrementalSafetyEngine(const TransactionCatalog* catalog,
                          EngineContext* ctx);

  /// Analyzes the catalog's current contents, reusing stored verdicts for
  /// everything no edit touched. The report carries DeltaStats in
  /// `report.delta`.
  MultiSafetyReport Check();

  /// Drops all stored verdicts and the remembered snapshot; the next
  /// Check() runs full (DeltaStats::full set).
  void Reset();

  const EngineTotals& totals() const { return totals_; }
  /// Number of pair verdicts currently held.
  int64_t PairStoreSize() const {
    return static_cast<int64_t>(store_.pairs.size());
  }
  /// Number of cycle memos currently held.
  int64_t CycleStoreSize() const {
    return static_cast<int64_t>(store_.cycles.size());
  }

 private:
  const TransactionCatalog* catalog_;
  EngineContext* ctx_;

  /// TxnId -> definition at the previous Check, for pointer-identity
  /// diffing. Empty map with has_prev_==false before the first Check.
  std::unordered_map<TxnId, std::shared_ptr<const Transaction>> prev_;
  bool has_prev_ = false;

  VerdictStore store_;

  EngineTotals totals_;
};

}  // namespace dislock

#endif  // DISLOCK_CORE_INCREMENTAL_ENGINE_H_
