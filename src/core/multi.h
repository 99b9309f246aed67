#ifndef DISLOCK_CORE_MULTI_H_
#define DISLOCK_CORE_MULTI_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/incremental/delta.h"
#include "core/safety.h"
#include "graph/digraph.h"
#include "txn/catalog.h"
#include "txn/system.h"
#include "util/status.h"

namespace dislock {

class EngineContext;

/// The transaction conflict graph G of Section 6: one vertex per
/// transaction, an (undirected) edge [Ti, Tj] iff Ti and Tj lock-unlock a
/// common entity. Represented as a symmetric digraph so directed traversals
/// of its cycles can be enumerated.
Digraph BuildTransactionConflictGraph(const SystemView& view);
Digraph BuildTransactionConflictGraph(const TransactionSystem& system);

/// Result of the Proposition 2 analysis.
struct MultiSafetyReport {
  SafetyVerdict verdict = SafetyVerdict::kUnknown;
  /// Condition (a) failure: an unsafe (or undecided) pair, with its report.
  std::optional<std::pair<int, int>> failing_pair;
  std::optional<PairSafetyReport> pair_report;
  /// Condition (b) failure: a directed cycle c of G whose B_c is acyclic.
  std::vector<int> failing_cycle;
  /// Work counters: conflicting pairs decided by running the full pair
  /// procedure, pairs whose safe verdict came from the verdict cache, and
  /// directed cycles examined.
  int pairs_checked = 0;
  int pairs_cached = 0;
  int cycles_checked = 0;
  /// True when the cycle enumeration hit its cap (verdict degraded to
  /// kUnknown if everything else passed).
  bool cycle_budget_exhausted = false;
  /// DecisionPipeline statistics summed over the pairs_checked pairs (cache
  /// hits contribute nothing — no pipeline ran for them). Aggregated in the
  /// deterministic serial-replay order, so like every other field it is
  /// bit-identical at any thread count.
  PipelineStats pipeline;
  /// Reuse accounting of the incremental engine
  /// (core/incremental/engine.h); absent on batch analyses.
  std::optional<DeltaStats> delta;
};

/// Historically a separate struct wrapping a nested SafetyOptions
/// (`.pair_options`) plus cycle/thread/cache knobs; all of it now lives
/// flat in the one EngineConfig (core/decision/config.h).
using MultiSafetyOptions = EngineConfig;

/// Proposition 2: a system T is safe iff (a) every two-transaction
/// subsystem is safe, and (b) for each directed cycle c of G the union B_c
/// of the B_ijk along c has a (directed) cycle.
///
/// Testing (b) is itself coNP-complete in the number of transactions (it
/// already is in the centralized case), so the cycle enumeration is capped.
///
/// Determinism: the report is a pure function of (system, config) minus
/// num_threads — parallel runs reduce to the lexicographically-first
/// failing pair (respectively the first failing cycle in enumeration
/// order), which is exactly what the serial scan reports, and the work
/// counters are reconstructed by replaying the serial scan order over the
/// computed verdicts. Early-exit cancellation only ever skips work the
/// serial scan would not have reached.
MultiSafetyReport AnalyzeMultiSafety(const TransactionSystem& system,
                                     const MultiSafetyOptions& options = {});

/// As above but sharing an existing EngineContext (thread pool, verdict
/// cache, cancellation token) across many calls.
MultiSafetyReport AnalyzeMultiSafety(const TransactionSystem& system,
                                     EngineContext* ctx);

/// The view-based engine entry point both containers route through: a
/// TransactionSystem and a CatalogSnapshot analyze identically when their
/// views agree. Equivalent to CheckProposition2(view, ctx).
MultiSafetyReport AnalyzeMultiSafety(const SystemView& view,
                                     EngineContext* ctx);

/// The pair and cycle verdicts an incremental engine keeps between checks
/// (core/incremental/store.h).
struct VerdictStore;

/// The one Proposition-2 routine: decides conditions (a) and (b) for
/// `view`. Batch analysis and incremental checks both run it; it branches
/// on exactly one fact, whether the verdicts persist.
///
///  * `memo == nullptr` (batch): every verdict is computed this call.
///    Early-exit cancellation applies — a failing pair or cycle stops the
///    scan, and parallel runs skip work the serial scan would not reach —
///    and tier-1 SAFE hits of ctx->cache() are served without running the
///    pair procedure. Fresh verdicts are inserted into that cache.
///  * `memo != nullptr` (incremental check): `ids[i]` is the stable TxnId
///    of view transaction i. Pairs and cycles missing from `memo` are
///    decided exhaustively, with no early exit and nothing served from
///    tier 1, so the memo after the call is a pure function of (previous
///    memo, view, config). The report's counters are replayed from the memo
///    exactly as a batch run under a fresh EngineContext would count them,
///    and report.delta carries the reused/recomputed split. Fresh pair
///    verdicts are written to the config's tier-2 store, never read from
///    it.
///
/// Spans: multi.pairs/multi.cycles in batch mode, incremental.pairs/
/// incremental.cycles in check mode.
MultiSafetyReport CheckProposition2(const SystemView& view,
                                    EngineContext* ctx,
                                    VerdictStore* memo = nullptr,
                                    const std::vector<TxnId>* ids = nullptr);

/// The condition-(b) kernel: decides whether B_c of a directed cycle c of G
/// has a directed cycle, without materializing a Digraph. B_c is the union
/// along c of the digraphs B_ijk, one per directed two-path (Ti, Tj, Tk):
///   * a node x_ij for each entity locked-unlocked by both Ti and Tj, and a
///     node y_jk for each entity locked-unlocked by both Tj and Tk;
///   * arcs, all read off the middle transaction Tj:
///       (x_ij, y_jk)   iff Lx precedes Uy in Tj,
///       (x_ij, x'_ij)  iff Lx precedes Lx' in Tj,
///       (y_jk, y'_jk)  iff Uy precedes Uy' in Tj.
/// Node identity is the pair (unordered transaction pair, entity), so the
/// B_ijk graphs glue at shared transaction pairs.
///
/// The conflicting-pair entity lists are computed once at construction and
/// shared read-only across a pool fan-out; each BcHasCycle call generates
/// B_c's arcs straight into thread-local arena arrays with dense remapped
/// node ids and runs the CSR Kahn kernel. `view` must outlive the checker.
class FlatCycleChecker {
 public:
  /// `pairs` are the conflicting pairs of G (in scan order); every
  /// consecutive transaction pair of a checked cycle must appear in it.
  FlatCycleChecker(const SystemView& view,
                   const std::vector<std::pair<int, int>>& pairs);

  /// True iff B_c of the directed cycle (transaction indices, traversed
  /// cyclically) has a directed cycle.
  bool BcHasCycle(const std::vector<int>& cycle) const;

 private:
  /// Unordered-pair key: a node's pair is {min(i, j), max(i, j)}.
  static int64_t Key(int a, int b) {
    const int lo = a < b ? a : b;
    const int hi = a < b ? b : a;
    return (static_cast<int64_t>(lo) << 32) | static_cast<uint32_t>(hi);
  }

  const SystemView& view_;
  std::unordered_map<int64_t, int> index_;
  std::vector<std::vector<EntityId>> common_;
};

}  // namespace dislock

#endif  // DISLOCK_CORE_MULTI_H_
