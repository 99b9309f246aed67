#include "core/incremental/engine.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>

#include "core/decision/context.h"
#include "core/wire_keys.h"
#include "graph/cycles.h"
#include "obs/trace.h"

namespace dislock {

IncrementalSafetyEngine::IncrementalSafetyEngine(
    const TransactionCatalog* catalog, EngineContext* ctx)
    : catalog_(catalog), ctx_(ctx) {
  DISLOCK_CHECK(catalog != nullptr);
  DISLOCK_CHECK(ctx != nullptr);
}

void IncrementalSafetyEngine::Reset() {
  prev_.clear();
  has_prev_ = false;
  store_.Clear();
}

MultiSafetyReport IncrementalSafetyEngine::Check() {
  const EngineConfig& options = ctx_->config();
  CatalogSnapshot snap = catalog_->Snapshot();
  SystemView view = snap.View();
  MultiSafetyReport report;
  DeltaStats delta;

  // ---- Diff against the previous Check by pointer identity per id. ----
  std::optional<obs::TraceSpan> diff_span;
  diff_span.emplace(ctx_->trace(), wire::kSpanIncrementalDiff);
  std::unordered_map<TxnId, std::shared_ptr<const Transaction>> cur;
  cur.reserve(static_cast<size_t>(snap.NumTransactions()));
  for (int i = 0; i < snap.NumTransactions(); ++i) {
    cur.emplace(snap.id(i), snap.txn_ptr(i));
  }
  std::unordered_set<TxnId> edited;  // removed or replaced: invalidation set
  if (!has_prev_) {
    delta.full = true;
  } else {
    for (const auto& [id, txn] : prev_) {
      auto it = cur.find(id);
      if (it == cur.end()) {
        ++delta.txns_removed;
        edited.insert(id);
      } else if (it->second.get() != txn.get()) {
        ++delta.txns_replaced;
        edited.insert(id);
      }
    }
    for (const auto& [id, txn] : cur) {
      if (prev_.find(id) == prev_.end()) ++delta.txns_added;
    }
  }

  diff_span.reset();

  // ---- Invalidate exactly the store entries that mention an edited id:
  // the edited transaction's incident pairs and the cycles through it. ----
  std::optional<obs::TraceSpan> invalidate_span;
  invalidate_span.emplace(ctx_->trace(), wire::kSpanIncrementalInvalidate);
  store_.Invalidate(edited);
  invalidate_span.reset();

  // ---- Condition (a): decide the dirty conflicting pairs, reuse the
  // rest. ----
  std::optional<obs::TraceSpan> pairs_span;
  pairs_span.emplace(ctx_->trace(), wire::kSpanIncrementalPairs);
  Digraph g = BuildTransactionConflictGraph(view);
  std::vector<std::pair<int, int>> pairs = ConflictingPairs(g);
  std::vector<std::pair<TxnId, TxnId>> keys;
  keys.reserve(pairs.size());
  for (const auto& p : pairs) {
    TxnId a = snap.id(p.first);
    TxnId b = snap.id(p.second);
    keys.emplace_back(std::min(a, b), std::max(a, b));
  }
  delta.pairs_recomputed = DecideDirtyPairs(view, pairs, keys, ctx_, &store_);
  delta.pairs_reused =
      static_cast<int64_t>(pairs.size()) - delta.pairs_recomputed;

  // ---- Replay the serial memoized scan exactly as a fresh-context
  // scratch run would (core/incremental/store.h). ----
  auto [scan, num_groups] =
      BuildStoredPairScan(view, pairs, keys, store_, options);
  std::optional<size_t> failing = ReplayPairScan(scan, num_groups, {}, &report);
  pairs_span.reset();

  prev_ = std::move(cur);
  has_prev_ = true;

  if (!failing.has_value()) {
    // ---- Condition (b): examine the dirty cycles, reuse the rest. ----
    obs::TraceSpan cycles_span(ctx_->trace(), wire::kSpanIncrementalCycles);
    std::vector<std::vector<NodeId>> cycles =
        options.use_flat_kernel ? SimpleCyclesFlat(g, options.max_cycles)
                                : SimpleCycles(g, options.max_cycles);
    bool budget_exhausted =
        static_cast<int64_t>(cycles.size()) >= options.max_cycles;
    const size_t min_len = options.include_two_cycles ? 2 : 3;
    std::vector<std::vector<int>> to_check;
    for (const auto& cycle : cycles) {
      if (cycle.size() < min_len) continue;
      to_check.emplace_back(cycle.begin(), cycle.end());
    }
    std::vector<std::vector<TxnId>> cycle_keys;
    cycle_keys.reserve(to_check.size());
    for (const auto& cycle : to_check) {
      std::vector<TxnId> ids;
      ids.reserve(cycle.size());
      for (int v : cycle) ids.push_back(snap.id(v));
      cycle_keys.push_back(CanonicalCycleKey(ids));
    }
    delta.cycles_recomputed =
        DecideDirtyCycles(view, pairs, to_check, cycle_keys, ctx_, &store_);
    delta.cycles_reused =
        static_cast<int64_t>(to_check.size()) - delta.cycles_recomputed;

    size_t first_acyclic = to_check.size();
    for (size_t c = 0; c < to_check.size(); ++c) {
      if (!store_.cycles.at(cycle_keys[c])) {
        first_acyclic = c;
        break;
      }
    }
    ReduceCycleScan(&to_check, first_acyclic, budget_exhausted, &report);
  }
  // else: condition (a) failed — the batch scan would not have enumerated
  // cycles either, so cycles_reused/cycles_recomputed stay 0.

  report.delta = delta;
  ++totals_.checks;
  totals_.pairs_reused += delta.pairs_reused;
  totals_.pairs_recomputed += delta.pairs_recomputed;
  totals_.cycles_reused += delta.cycles_reused;
  totals_.cycles_recomputed += delta.cycles_recomputed;
  return report;
}

}  // namespace dislock
