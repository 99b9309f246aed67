#ifndef DISLOCK_CORE_DECISION_CONFIG_H_
#define DISLOCK_CORE_DECISION_CONFIG_H_

#include <cstdint>

namespace dislock {

class PairVerdictCache;
namespace cache {
class VerdictStore;
}  // namespace cache
namespace obs {
class StatsSink;
class TraceRecorder;
}  // namespace obs

/// The one tuning struct of the decision engine. It replaces the formerly
/// duplicated SafetyOptions / MultiSafetyOptions / AnalysisOptions trio
/// (those names survive as aliases of this type), so a single config flows
/// unchanged from a tool flag through the analysis passes into every
/// pipeline stage.
struct EngineConfig {
  // ---- Per-pair stage budgets (the DecisionPipeline) ----

  /// Budget for the Lemma 1 brute-force stage (pairs of linear
  /// extensions); 0 disables the stage.
  int64_t max_extension_pairs = 1 << 20;

  /// How many dominators the Corollary 2 closure stage closes on pairs
  /// spanning three or more sites — the one budget of the dominator
  /// search. When the enumeration is complete (the pair has at most this
  /// many dominators) the closure loop decides safety EXACTLY — this knob
  /// is the "2^n" of the coNP-complete regime. At about 0.1 ms per
  /// closure the default bounds an undecided pair to about ten seconds
  /// (docs/pipeline.md has the measurements).
  int64_t max_dominators = 1 << 16;

  // ---- System-level budgets (Proposition 2 / AnalyzeMultiSafety) ----

  /// Cap on the number of directed cycles of G examined by condition (b).
  int64_t max_cycles = 1 << 14;

  /// Include directed 2-cycles (Ti, Tj) in condition (b). The pairwise test
  /// of condition (a) already decides pairs exactly, so the default skips
  /// them; enabling is useful for experiments.
  bool include_two_cycles = false;

  /// State budget for the deadlock pass's reachable-state search
  /// (core/deadlock.h). The state space is a product of down-set lattices,
  /// so the default is deliberately modest: exceeding it downgrades the
  /// verdict to DL206 (deadlock-undecided) instead of stalling the
  /// analysis. Tools that run the search standalone pass larger budgets.
  int64_t max_deadlock_states = 1 << 14;

  // ---- Execution ----

  /// Worker threads for the parallel engine (pair tests, cycle checks, the
  /// per-pair dominator fan-out). 1 = serial (default), 0 = one per
  /// hardware thread. Reports are bit-identical at any thread count.
  int num_threads = 1;

  /// Optional external pair-verdict memo shared across analyses; not
  /// owned. Overrides enable_cache.
  PairVerdictCache* cache = nullptr;

  /// When true and `cache` is null, the EngineContext owns a private
  /// PairVerdictCache for the lifetime of the context (what the tools'
  /// --cache flag toggles).
  bool enable_cache = false;

  /// Optional persistent tier-2 verdict store (cache/verdict_store.h); not
  /// owned, null = off, exactly like the obs pointers below. When set, the
  /// EngineContext attaches it to the context-owned tier-1 cache (creating
  /// that cache even when enable_cache is false), so memory misses fall
  /// through to disk and fresh verdicts are buffered for the next Flush.
  /// When an external `cache` is supplied instead, its owner decides
  /// whether to attach the store (PairVerdictCache::set_store) — the
  /// engine never rewires a cache it does not own. Serving a verdict from
  /// the store never changes what the engine would compute, only whether
  /// the pair procedure runs (docs/caching.md pins the exact byte-identity
  /// contract).
  cache::VerdictStore* store = nullptr;

  // ---- Observability ----

  /// Optional span recorder (obs/trace.h); not owned. Null (the default)
  /// means tracing off — every instrumentation site degrades to a no-op.
  /// Flows with the config through every engine entry point, so one
  /// --trace=FILE flag covers pair tests, the multi engine, the
  /// incremental engine, and the pool's workers. Recording spans never
  /// changes a report byte: timing lands only in the trace file.
  obs::TraceRecorder* trace = nullptr;

  /// Optional metrics sink (obs/stats_sink.h); not owned. Only the
  /// OUTERMOST report owner pours into it — PassManager::Run, the session
  /// loop, or the tool itself (core/stats_export.h) — never the nested
  /// library stages, so each analysis is counted exactly once. Like
  /// `trace`, setting it never changes a report byte.
  obs::StatsSink* stats = nullptr;
};

}  // namespace dislock

#endif  // DISLOCK_CORE_DECISION_CONFIG_H_
