#include "core/incremental/store.h"

#include <algorithm>
#include <future>
#include <optional>
#include <string>
#include <unordered_map>

#include "cache/verdict_cache.h"
#include "cache/verdict_store.h"
#include "core/decision/context.h"
#include "graph/cycles.h"
#include "util/thread_pool.h"

namespace dislock {

std::vector<TxnId> CanonicalCycleKey(const std::vector<TxnId>& cycle) {
  auto min_it = std::min_element(cycle.begin(), cycle.end());
  std::vector<TxnId> key;
  key.reserve(cycle.size());
  key.insert(key.end(), min_it, cycle.end());
  key.insert(key.end(), cycle.begin(), min_it);
  return key;
}

void VerdictStore::Invalidate(const std::unordered_set<TxnId>& edited) {
  if (edited.empty()) return;
  for (auto it = pairs.begin(); it != pairs.end();) {
    if (edited.count(it->first.first) != 0 ||
        edited.count(it->first.second) != 0) {
      it = pairs.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = cycles.begin(); it != cycles.end();) {
    bool touched = false;
    for (TxnId id : it->first) touched = touched || edited.count(id) != 0;
    if (touched) {
      it = cycles.erase(it);
    } else {
      ++it;
    }
  }
}

int64_t DecideDirtyPairs(const SystemView& view,
                         const std::vector<std::pair<int, int>>& pairs,
                         const std::vector<std::pair<TxnId, TxnId>>& keys,
                         EngineContext* ctx, VerdictStore* store) {
  std::vector<size_t> dirty;
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (store->pairs.find(keys[p]) == store->pairs.end()) dirty.push_back(p);
  }

  // Mirror the batch path's per-pair config (core/multi.cc) so a stored
  // report is bit-identical to the one a scratch run would compute.
  const EngineConfig& options = ctx->config();
  ThreadPool* pool = ctx->pool();
  EngineConfig pair_config = options;
  pair_config.cache = nullptr;
  pair_config.enable_cache = false;
  pair_config.store = nullptr;
  if (pool != nullptr) pair_config.num_threads = 1;

  // All dirty pairs are computed — no early exit — so the store state
  // after this loop is thread-count-independent.
  std::vector<PairSafetyReport> dirty_reports(dirty.size());
  auto run_pair = [&](size_t d) {
    const std::pair<int, int>& p = pairs[dirty[d]];
    dirty_reports[d] =
        AnalyzePairSafety(view.txn(p.first), view.txn(p.second), pair_config);
  };
  if (pool != nullptr && dirty.size() > 1) {
    std::vector<std::future<void>> futures;
    futures.reserve(dirty.size());
    for (size_t d = 0; d < dirty.size(); ++d) {
      futures.push_back(pool->Submit([&, d] { run_pair(d); }));
    }
    for (auto& f : futures) f.get();
  } else {
    for (size_t d = 0; d < dirty.size(); ++d) run_pair(d);
  }
  // Contribute the freshly computed verdicts to the persistent tier-2
  // store. Write-only on purpose: the incremental path never *serves* a
  // verdict from the store (that would make check counters vary with
  // warmth — see docs/caching.md), but its work still warms the store for
  // batch runs and for the session's own `analyze` command. The pending
  // buffer dedups by fingerprint, so the flushed bytes are independent of
  // compute order.
  if (options.store != nullptr) {
    for (size_t d = 0; d < dirty.size(); ++d) {
      const std::pair<int, int>& p = pairs[dirty[d]];
      std::string fp =
          options.use_flat_kernel
              ? PairFingerprintFlat(view.txn(p.first), view.txn(p.second))
              : PairFingerprint(view.txn(p.first), view.txn(p.second));
      const PairSafetyReport& r = dirty_reports[d];
      CachedPairVerdict entry;
      entry.verdict = r.verdict;
      entry.method = r.method;
      entry.sites_spanned = r.sites_spanned;
      options.store->Put(fp, entry);
    }
  }
  for (size_t d = 0; d < dirty.size(); ++d) {
    store->pairs.emplace(keys[dirty[d]], std::move(dirty_reports[d]));
  }
  return static_cast<int64_t>(dirty.size());
}

int64_t DecideDirtyCycles(const SystemView& view,
                          const std::vector<std::pair<int, int>>& pairs,
                          const std::vector<std::vector<int>>& to_check,
                          const std::vector<std::vector<TxnId>>& keys,
                          EngineContext* ctx, VerdictStore* store) {
  std::vector<size_t> dirty;
  for (size_t c = 0; c < to_check.size(); ++c) {
    if (store->cycles.find(keys[c]) == store->cycles.end()) dirty.push_back(c);
  }

  const EngineConfig& options = ctx->config();
  ThreadPool* pool = ctx->pool();
  std::optional<FlatCycleChecker> flat_checker;
  if (options.use_flat_kernel && !dirty.empty()) {
    flat_checker.emplace(view, pairs);
  }

  // Again exhaustively, no early exit, for store determinism.
  std::vector<char> dirty_has_cycle(dirty.size(), 0);
  auto run_cycle = [&](size_t d) {
    const std::vector<int>& cycle = to_check[dirty[d]];
    dirty_has_cycle[d] = (flat_checker.has_value()
                              ? flat_checker->BcHasCycle(cycle)
                              : HasCycle(BuildCycleGraph(view, cycle)))
                             ? 1
                             : 0;
  };
  if (pool != nullptr && dirty.size() > 1) {
    constexpr size_t kChunk = 16;
    std::vector<std::future<void>> futures;
    for (size_t begin = 0; begin < dirty.size(); begin += kChunk) {
      size_t end = std::min(begin + kChunk, dirty.size());
      futures.push_back(pool->Submit([&, begin, end] {
        for (size_t d = begin; d < end; ++d) run_cycle(d);
      }));
    }
    for (auto& f : futures) f.get();
  } else {
    for (size_t d = 0; d < dirty.size(); ++d) run_cycle(d);
  }
  for (size_t d = 0; d < dirty.size(); ++d) {
    store->cycles.emplace(keys[dirty[d]], dirty_has_cycle[d] != 0);
  }
  return static_cast<int64_t>(dirty.size());
}

std::pair<std::vector<ScanPair>, int> BuildStoredPairScan(
    const SystemView& view, const std::vector<std::pair<int, int>>& pairs,
    const std::vector<std::pair<TxnId, TxnId>>& keys,
    const VerdictStore& store, const EngineConfig& options) {
  std::vector<ScanPair> scan;
  scan.reserve(pairs.size());
  int num_groups = 0;
  // Group exactly when a fresh batch context would own a cache: an
  // external cache, --cache, or a configured tier-2 store. Warmth plays no
  // role here (cached_safe is never set), so stored-scan replies are
  // byte-identical whether the store is cold, warm, or shared.
  if (options.cache != nullptr || options.enable_cache ||
      options.store != nullptr) {
    std::unordered_map<std::string, int> group_index;
    for (size_t p = 0; p < pairs.size(); ++p) {
      std::string fp = options.use_flat_kernel
                           ? PairFingerprintFlat(view.txn(pairs[p].first),
                                                 view.txn(pairs[p].second))
                           : PairFingerprint(view.txn(pairs[p].first),
                                             view.txn(pairs[p].second));
      auto [it, inserted] = group_index.emplace(std::move(fp), num_groups);
      if (inserted) ++num_groups;
      ScanPair sp;
      sp.txns = pairs[p];
      sp.group = it->second;
      sp.report = &store.pairs.at(keys[p]);
      scan.push_back(sp);
    }
  } else {
    num_groups = static_cast<int>(pairs.size());
    for (size_t p = 0; p < pairs.size(); ++p) {
      ScanPair sp;
      sp.txns = pairs[p];
      sp.group = static_cast<int>(p);
      sp.report = &store.pairs.at(keys[p]);
      scan.push_back(sp);
    }
  }
  return {std::move(scan), num_groups};
}

}  // namespace dislock
