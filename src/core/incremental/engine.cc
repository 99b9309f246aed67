#include "core/incremental/engine.h"

#include <optional>
#include <unordered_set>

#include "core/decision/context.h"
#include "core/wire_keys.h"
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
  CatalogSnapshot snap = catalog_->Snapshot();
  SystemView view = snap.View();
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

  // ---- Decide conditions (a) and (b), reusing every stored verdict no
  // edit touched; the same routine a batch analysis runs. ----
  MultiSafetyReport report =
      CheckProposition2(view, ctx_, &store_, &snap.ids());
  prev_ = std::move(cur);
  has_prev_ = true;

  // The routine reports the reuse split; the edit counts are the diff's.
  delta.pairs_reused = report.delta->pairs_reused;
  delta.pairs_recomputed = report.delta->pairs_recomputed;
  delta.cycles_reused = report.delta->cycles_reused;
  delta.cycles_recomputed = report.delta->cycles_recomputed;
  report.delta = delta;
  ++totals_.checks;
  totals_.pairs_reused += delta.pairs_reused;
  totals_.pairs_recomputed += delta.pairs_recomputed;
  totals_.cycles_reused += delta.cycles_reused;
  totals_.cycles_recomputed += delta.cycles_recomputed;
  return report;
}

}  // namespace dislock
