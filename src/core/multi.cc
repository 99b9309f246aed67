#include "core/multi.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <string>
#include <unordered_map>

#include "cache/verdict_cache.h"
#include "cache/verdict_store.h"
#include "core/decision/context.h"
#include "core/incremental/store.h"
#include "core/wire_keys.h"
#include "graph/csr.h"
#include "graph/cycles.h"
#include "obs/trace.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace dislock {

namespace {

/// Atomically lowers `target` to `idx` if `idx` is smaller.
void AtomicMin(std::atomic<size_t>* target, size_t idx) {
  size_t seen = target->load(std::memory_order_acquire);
  while (idx < seen && !target->compare_exchange_weak(
                           seen, idx, std::memory_order_acq_rel)) {
  }
}

/// Runs fn(i) for i in [0, n) and returns the smallest i for which fn
/// returned true (a "hit"), or n. With a pool and more than one item the
/// indices are submitted in chunks of `chunk` consecutive indices (cycle
/// checks are cheap relative to task dispatch); otherwise they run serially
/// in order. With `early_exit`, indices past a known hit are skipped — the
/// serial loop stops at its first hit, parallel chunks re-check before
/// every index — which only ever skips work the serial scan would not have
/// reached. Without it every index runs.
template <typename Fn>
size_t FanOut(ThreadPool* pool, size_t n, size_t chunk, bool early_exit,
              const Fn& fn) {
  if (pool == nullptr || n <= 1) {
    size_t first = n;
    for (size_t i = 0; i < n; ++i) {
      if (fn(i) && first == n) {
        first = i;
        if (early_exit) break;
      }
    }
    return first;
  }
  std::atomic<size_t> first{n};
  std::vector<std::future<void>> futures;
  futures.reserve((n + chunk - 1) / chunk);
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(begin + chunk, n);
    futures.push_back(pool->Submit([&, begin, end] {
      for (size_t i = begin; i < end; ++i) {
        if (early_exit && i > first.load(std::memory_order_acquire)) return;
        if (fn(i)) AtomicMin(&first, i);
      }
    }));
  }
  for (auto& f : futures) f.get();
  return first.load(std::memory_order_acquire);
}

/// The conflicting pairs (i < j) of G in the lexicographic scan order of
/// the classic serial loop — the order every reduction replays.
std::vector<std::pair<int, int>> ConflictingPairs(const Digraph& g) {
  const int k = g.NumNodes();
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (g.HasArc(i, j)) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

/// The config every pair procedure runs under: no verdict cache (grouping
/// fingerprint-equal pairs happens here, one level up), and under a pool a
/// serial pipeline — the pair fan-out owns the workers, so nested per-pair
/// dominator parallelism would oversubscribe them.
EngineConfig PairConfig(const EngineConfig& options, bool pooled) {
  EngineConfig pair_config = options;
  pair_config.cache = nullptr;
  pair_config.enable_cache = false;
  pair_config.store = nullptr;
  if (pooled) pair_config.num_threads = 1;
  return pair_config;
}

/// One conflicting pair in scan order, with its resolved verdict source.
struct ScanPair {
  std::pair<int, int> txns;  ///< dense indices, first < second
  /// Fingerprint group of the pair (every pair its own group when no
  /// verdict cache is configured). Groups are numbered by first appearance
  /// in scan order.
  int group = 0;
  /// The group representative's report. Consulted only at the group's
  /// first scan appearance; may be null for pairs the serial scan never
  /// reaches (early-exit cancellation skipped them).
  const PairSafetyReport* report = nullptr;
  /// The whole group was pre-decided SAFE by an external verdict cache.
  bool cached_safe = false;
};

/// Replays the serial memoized scan over resolved pair verdicts: counts
/// pairs_checked / pairs_cached, aggregates pipeline statistics, and stops
/// at the lexicographically-first non-safe group. On failure fills
/// verdict / failing_pair / pair_report and returns the failing scan
/// index. `on_checked` fires once per counted group, in scan order.
std::optional<size_t> ReplayPairScan(
    const std::vector<ScanPair>& scan, int num_groups,
    const std::function<void(const ScanPair&)>& on_checked,
    MultiSafetyReport* report) {
  std::vector<bool> group_seen(static_cast<size_t>(num_groups), false);
  for (size_t p = 0; p < scan.size(); ++p) {
    const ScanPair& pair = scan[p];
    if (pair.cached_safe || group_seen[static_cast<size_t>(pair.group)]) {
      // Skipped via the cache (pre-populated SAFE entry, or decided at
      // the group's first member earlier in this very scan).
      ++report->pairs_cached;
      continue;
    }
    group_seen[static_cast<size_t>(pair.group)] = true;
    ++report->pairs_checked;
    // p is this group's first member, i.e. its representative.
    DISLOCK_CHECK(pair.report != nullptr);
    report->pipeline.Add(pair.report->pipeline);
    if (on_checked) on_checked(pair);
    if (pair.report->verdict != SafetyVerdict::kSafe) {
      report->verdict = pair.report->verdict;
      report->failing_pair = pair.txns;
      report->pair_report = *pair.report;
      return p;
    }
  }
  return std::nullopt;
}

/// Reduces condition (b): given the filtered directed cycles in enumeration
/// order and the index of the first cycle whose B_c is acyclic (or
/// to_check->size() if none), fills cycles_checked / verdict /
/// failing_cycle / cycle_budget_exhausted exactly like the serial loop.
/// Consumes `to_check` (the failing cycle is moved out).
void ReduceCycleScan(std::vector<std::vector<int>>* to_check,
                     size_t first_acyclic, bool budget_exhausted,
                     MultiSafetyReport* report) {
  report->cycle_budget_exhausted = budget_exhausted;
  if (first_acyclic < to_check->size()) {
    // The serial loop counts every cycle examined up to and including the
    // failing one.
    report->cycles_checked = static_cast<int>(first_acyclic) + 1;
    report->verdict = SafetyVerdict::kUnsafe;
    report->failing_cycle = std::move((*to_check)[first_acyclic]);
    return;
  }
  report->cycles_checked = static_cast<int>(to_check->size());
  report->verdict = budget_exhausted ? SafetyVerdict::kUnknown
                                     : SafetyVerdict::kSafe;
}

}  // namespace

FlatCycleChecker::FlatCycleChecker(
    const SystemView& view, const std::vector<std::pair<int, int>>& pairs)
    : view_(view) {
  common_.reserve(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    index_.emplace(Key(pairs[p].first, pairs[p].second),
                   static_cast<int>(p));
    common_.push_back(ConflictingEntities(view.txn(pairs[p].first),
                                          view.txn(pairs[p].second)));
  }
}

// Duplicate arcs (an entity pair reached from two cycle positions of a
// 2-cycle) are kept: they cannot change acyclicity.
bool FlatCycleChecker::BcHasCycle(const std::vector<int>& cycle) const {
  const int len = static_cast<int>(cycle.size());
  DISLOCK_CHECK_GE(len, 2);
  Arena* arena = ScratchArena();
  ArenaScope scope(arena);

  // Edge slot per cycle position; a 2-cycle's two positions share one
  // unordered pair (and therefore one slot): node identity is the pair
  // (unordered transaction pair, entity).
  int* slot_of_p = arena->AllocateArray<int>(static_cast<size_t>(len));
  const std::vector<EntityId>** slot_entities =
      arena->AllocateArray<const std::vector<EntityId>*>(
          static_cast<size_t>(len));
  int64_t* slot_keys = arena->AllocateArray<int64_t>(
      static_cast<size_t>(len));
  int num_slots = 0;
  for (int p = 0; p < len; ++p) {
    const int64_t key = Key(cycle[p], cycle[(p + 1) % len]);
    int slot = -1;
    for (int s = 0; s < num_slots; ++s) {
      if (slot_keys[s] == key) {
        slot = s;
        break;
      }
    }
    if (slot < 0) {
      slot = num_slots++;
      slot_keys[slot] = key;
      slot_entities[slot] = &common_[static_cast<size_t>(index_.at(key))];
    }
    slot_of_p[p] = slot;
  }

  // Dense node ids: base[slot] + (index of the entity in its list).
  int* base = arena->AllocateArray<int>(static_cast<size_t>(num_slots) + 1);
  base[0] = 0;
  for (int s = 0; s < num_slots; ++s) {
    base[s + 1] = base[s] + static_cast<int>(slot_entities[s]->size());
  }
  const int num_nodes = base[num_slots];

  size_t arc_cap = 0;
  for (int p = 0; p < len; ++p) {
    const size_t in = slot_entities[slot_of_p[(p + len - 1) % len]]->size();
    const size_t out = slot_entities[slot_of_p[p]]->size();
    arc_cap += in * out + in * in + out * out;
  }
  NodeId* tails = arena->AllocateArray<NodeId>(arc_cap);
  NodeId* heads = arena->AllocateArray<NodeId>(arc_cap);
  int32_t m = 0;

  auto node = [&](int slot, size_t entity_idx) {
    return static_cast<NodeId>(base[slot] + static_cast<int>(entity_idx));
  };

  for (int p = 0; p < len; ++p) {
    const int j = cycle[p];
    const Transaction& tj = view_.txn(j);
    const int in_slot = slot_of_p[(p + len - 1) % len];
    const int out_slot = slot_of_p[p];
    const std::vector<EntityId>& in_pair = *slot_entities[in_slot];
    const std::vector<EntityId>& out_pair = *slot_entities[out_slot];

    // (x_ij, y_jk) iff Lx precedes Uy in Tj.
    for (size_t xi = 0; xi < in_pair.size(); ++xi) {
      const StepId lx = tj.LockStep(in_pair[xi]);
      for (size_t yi = 0; yi < out_pair.size(); ++yi) {
        if (tj.Precedes(lx, tj.UnlockStep(out_pair[yi]))) {
          tails[m] = node(in_slot, xi);
          heads[m] = node(out_slot, yi);
          ++m;
        }
      }
    }
    // (x_ij, x'_ij) iff Lx precedes Lx' in Tj.
    for (size_t xi = 0; xi < in_pair.size(); ++xi) {
      const StepId lx = tj.LockStep(in_pair[xi]);
      for (size_t x2 = 0; x2 < in_pair.size(); ++x2) {
        if (x2 == xi) continue;
        if (tj.Precedes(lx, tj.LockStep(in_pair[x2]))) {
          tails[m] = node(in_slot, xi);
          heads[m] = node(in_slot, x2);
          ++m;
        }
      }
    }
    // (y_jk, y'_jk) iff Uy precedes Uy' in Tj.
    for (size_t yi = 0; yi < out_pair.size(); ++yi) {
      const StepId uy = tj.UnlockStep(out_pair[yi]);
      for (size_t y2 = 0; y2 < out_pair.size(); ++y2) {
        if (y2 == yi) continue;
        if (tj.Precedes(uy, tj.UnlockStep(out_pair[y2]))) {
          tails[m] = node(out_slot, yi);
          heads[m] = node(out_slot, y2);
          ++m;
        }
      }
    }
  }

  CsrGraph bc = BuildCsrFromArcs(num_nodes, tails, heads, m, arena);
  return HasCycleOnCsr(bc, arena);
}

Digraph BuildTransactionConflictGraph(const SystemView& view) {
  const int k = view.NumTransactions();
  Digraph g(k);
  for (int i = 0; i < k; ++i) {
    g.SetLabel(i, view.txn(i).name());
    for (int j = i + 1; j < k; ++j) {
      if (!ConflictingEntities(view.txn(i), view.txn(j)).empty()) {
        g.AddArc(i, j);
        g.AddArc(j, i);
      }
    }
  }
  return g;
}

Digraph BuildTransactionConflictGraph(const TransactionSystem& system) {
  return BuildTransactionConflictGraph(system.View());
}

MultiSafetyReport AnalyzeMultiSafety(const TransactionSystem& system,
                                     const MultiSafetyOptions& options) {
  EngineContext ctx(options);
  return AnalyzeMultiSafety(system, &ctx);
}

MultiSafetyReport AnalyzeMultiSafety(const TransactionSystem& system,
                                     EngineContext* ctx) {
  return CheckProposition2(system.View(), ctx);
}

MultiSafetyReport AnalyzeMultiSafety(const SystemView& view,
                                     EngineContext* ctx) {
  return CheckProposition2(view, ctx);
}

MultiSafetyReport CheckProposition2(const SystemView& view,
                                    EngineContext* ctx, VerdictStore* memo,
                                    const std::vector<TxnId>* ids) {
  const EngineConfig& options = ctx->config();
  const bool persist = memo != nullptr;
  DISLOCK_CHECK(!persist || ids != nullptr);
  MultiSafetyReport report;
  DeltaStats delta;
  ThreadPool* pool = ctx->pool();
  // Phase span for condition (a); the per-pair work shows up nested under
  // it (serial) or under the workers' "pool.task" spans (parallel).
  std::optional<obs::TraceSpan> pairs_span;
  pairs_span.emplace(ctx->trace(), persist ? wire::kSpanIncrementalPairs
                                           : wire::kSpanMultiPairs);

  // The conflict graph G drives both conditions: its arcs are exactly the
  // conflicting pairs of condition (a), and its directed cycles are the
  // subject of condition (b). Build it once.
  Digraph g = BuildTransactionConflictGraph(view);

  // ---- Condition (a): every two-transaction subsystem is safe. ----

  // Conflicting pairs in the lexicographic scan order of the serial loop.
  std::vector<std::pair<int, int>> pairs = ConflictingPairs(g);

  // Group fingerprint-equal pairs: they provably get identical reports
  // (cache/verdict_cache.h), so only each group's lex-first member runs
  // the (potentially coNP-hard) pair procedure. Groups exist exactly when
  // a fresh EngineContext would own a verdict cache — warm or cold plays
  // no role — so both modes count pairs_checked/pairs_cached alike.
  // Without a cache every pair is a singleton group and this degenerates
  // to the plain pairwise scan.
  const bool grouped = options.cache != nullptr || options.enable_cache ||
                       options.store != nullptr;
  std::unordered_map<std::string, int> group_index;
  std::vector<const std::string*> group_fingerprint;  // when grouped
  std::vector<size_t> group_rep;  // scan index of each group's first member
  std::vector<int> group_of(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (!grouped) {
      group_of[p] = static_cast<int>(p);
      group_rep.push_back(p);
      continue;
    }
    auto [it, inserted] = group_index.emplace(
        PairFingerprint(view.txn(pairs[p].first), view.txn(pairs[p].second)),
        static_cast<int>(group_rep.size()));
    if (inserted) {
      group_rep.push_back(p);
      group_fingerprint.push_back(&it->first);
    }
    group_of[p] = it->second;
  }
  const size_t num_groups = group_rep.size();

  // The pairs that run the pair procedure now (scan indices, ascending):
  // the memo's misses in check mode; in batch mode the representatives of
  // the groups the verdict cache does not already know to be SAFE.
  PairVerdictCache* cache = grouped && !persist ? ctx->cache() : nullptr;
  std::vector<char> cached_safe(num_groups, 0);
  std::vector<std::pair<TxnId, TxnId>> keys;  // check mode only
  std::vector<size_t> work;
  if (persist) {
    keys.reserve(pairs.size());
    for (size_t p = 0; p < pairs.size(); ++p) {
      const TxnId a = (*ids)[static_cast<size_t>(pairs[p].first)];
      const TxnId b = (*ids)[static_cast<size_t>(pairs[p].second)];
      keys.emplace_back(std::min(a, b), std::max(a, b));
      if (memo->pairs.find(keys.back()) == memo->pairs.end()) {
        work.push_back(p);
      }
    }
  } else {
    for (size_t gi = 0; gi < num_groups; ++gi) {
      if (cache != nullptr) {
        auto hit = cache->Lookup(*group_fingerprint[gi]);
        cached_safe[gi] = hit.has_value() &&
                          hit->verdict == SafetyVerdict::kSafe;
      }
      if (!cached_safe[gi]) work.push_back(group_rep[gi]);
    }
  }

  // Batch runs stop at the first non-safe verdict (in parallel: skip pairs
  // past the earliest failing one seen so far); representatives before it
  // always complete, so the lexicographically-first failing pair is found
  // exactly. Check runs decide every miss, so the memo stays independent
  // of scheduling.
  const EngineConfig pair_config = PairConfig(options, pool != nullptr);
  std::vector<PairSafetyReport> decided(work.size());
  std::vector<char> ran(work.size(), 0);
  FanOut(pool, work.size(), /*chunk=*/1, /*early_exit=*/!persist,
         [&](size_t w) {
           const std::pair<int, int>& p = pairs[work[w]];
           decided[w] = AnalyzePairSafety(view.txn(p.first),
                                          view.txn(p.second), pair_config);
           ran[w] = 1;
           return decided[w].verdict != SafetyVerdict::kSafe;
         });

  // Deterministic reduction: replay the serial memoized scan over the
  // resolved verdicts to reconstruct the counters (including the
  // aggregated pipeline statistics) and find the lexicographically-first
  // failing pair.
  std::vector<ScanPair> scan(pairs.size());
  if (persist) {
    for (size_t w = 0; w < work.size(); ++w) {
      // Contribute the fresh verdict to the persistent tier-2 store.
      // Write-only on purpose: a check never *serves* a verdict from the
      // store (that would make its counters vary with warmth — see
      // docs/caching.md), but its work still warms the store for batch
      // runs. The pending buffer dedups by fingerprint, so the flushed
      // bytes are independent of compute order.
      if (options.store != nullptr) {
        CachedPairVerdict entry;
        entry.verdict = decided[w].verdict;
        entry.method = decided[w].method;
        entry.sites_spanned = decided[w].sites_spanned;
        options.store->Put(
            *group_fingerprint[static_cast<size_t>(group_of[work[w]])],
            entry);
      }
      memo->pairs.emplace(keys[work[w]], std::move(decided[w]));
    }
    delta.pairs_recomputed = static_cast<int64_t>(work.size());
    delta.pairs_reused = static_cast<int64_t>(pairs.size() - work.size());
    for (size_t p = 0; p < pairs.size(); ++p) {
      scan[p] = {pairs[p], group_of[p], &memo->pairs.at(keys[p]), false};
    }
  } else {
    std::vector<const PairSafetyReport*> group_report(num_groups, nullptr);
    for (size_t w = 0; w < work.size(); ++w) {
      if (ran[w]) {
        group_report[static_cast<size_t>(group_of[work[w]])] = &decided[w];
      }
    }
    for (size_t p = 0; p < pairs.size(); ++p) {
      const size_t gi = static_cast<size_t>(group_of[p]);
      scan[p] = {pairs[p], group_of[p], group_report[gi],
                 cached_safe[gi] != 0};
    }
  }
  auto insert_into_cache = [&](const ScanPair& sp) {
    if (cache != nullptr) {
      cache->Insert(*group_fingerprint[static_cast<size_t>(sp.group)],
                    *sp.report);
    }
  };
  std::optional<size_t> failing =
      ReplayPairScan(scan, static_cast<int>(num_groups), insert_into_cache,
                     &report);
  pairs_span.reset();
  if (failing.has_value()) {
    // Condition (a) failed: the serial scan never enumerates cycles, so
    // cycles_reused/cycles_recomputed stay 0.
    if (persist) report.delta = delta;
    return report;
  }

  // ---- Condition (b): every directed cycle's B_c graph has a cycle. ----
  obs::TraceSpan cycles_span(ctx->trace(), persist
                                               ? wire::kSpanIncrementalCycles
                                               : wire::kSpanMultiCycles);
  std::vector<std::vector<NodeId>> cycles =
      SimpleCycles(g, options.max_cycles);
  const bool budget_exhausted =
      static_cast<int64_t>(cycles.size()) >= options.max_cycles;
  const size_t min_len = options.include_two_cycles ? 2 : 3;
  std::vector<std::vector<int>> to_check;
  for (const auto& cycle : cycles) {
    if (cycle.size() < min_len) continue;
    to_check.emplace_back(cycle.begin(), cycle.end());
  }

  // The cycles checked now: the memo's misses (keyed by their canonical
  // TxnId rotation) in check mode, every cycle in batch mode.
  std::vector<std::vector<TxnId>> cycle_keys;  // check mode only
  std::vector<size_t> dirty;                   // check mode only
  if (persist) {
    cycle_keys.reserve(to_check.size());
    for (size_t c = 0; c < to_check.size(); ++c) {
      std::vector<TxnId> cycle_ids;
      cycle_ids.reserve(to_check[c].size());
      for (int v : to_check[c]) {
        cycle_ids.push_back((*ids)[static_cast<size_t>(v)]);
      }
      cycle_keys.push_back(CanonicalCycleKey(cycle_ids));
      if (memo->cycles.find(cycle_keys.back()) == memo->cycles.end()) {
        dirty.push_back(c);
      }
    }
  }
  const size_t num_work = persist ? dirty.size() : to_check.size();

  // The B_c kernel shares one read-only pair-entity table across the
  // fan-out; each worker's scratch lives in its thread-local arena.
  std::optional<FlatCycleChecker> checker;
  if (num_work > 0) checker.emplace(view, pairs);
  std::vector<char> has_cycle(persist ? num_work : 0, 0);
  constexpr size_t kCycleChunk = 16;
  size_t first_acyclic = FanOut(
      pool, num_work, kCycleChunk, /*early_exit=*/!persist, [&](size_t w) {
        const bool bc_cyclic =
            checker->BcHasCycle(to_check[persist ? dirty[w] : w]);
        if (persist) has_cycle[w] = bc_cyclic ? 1 : 0;
        return !bc_cyclic;
      });
  if (persist) {
    for (size_t w = 0; w < dirty.size(); ++w) {
      memo->cycles.emplace(cycle_keys[dirty[w]], has_cycle[w] != 0);
    }
    delta.cycles_recomputed = static_cast<int64_t>(dirty.size());
    delta.cycles_reused =
        static_cast<int64_t>(to_check.size() - dirty.size());
    first_acyclic = to_check.size();
    for (size_t c = 0; c < to_check.size(); ++c) {
      if (!memo->cycles.at(cycle_keys[c])) {
        first_acyclic = c;
        break;
      }
    }
    report.delta = delta;
  }
  ReduceCycleScan(&to_check, first_acyclic, budget_exhausted, &report);
  return report;
}

}  // namespace dislock
