#ifndef DISLOCK_CORE_DECISION_STATS_H_
#define DISLOCK_CORE_DECISION_STATS_H_

#include <array>
#include <cstdint>

namespace dislock {

/// The four registered stages of the default decision pipeline, in run
/// order. The enum doubles as the index into PipelineStats::stages.
enum class DecisionStageId {
  kTheorem1Scc = 0,
  kTheorem2TwoSite,
  kCorollary2Closure,
  kBruteForceLemma1,
};

inline constexpr int kNumDecisionStages = 4;

/// Stable stage name: "theorem1-scc", "theorem2-two-site",
/// "corollary2-closure", "brute-force-lemma1".
const char* DecisionStageName(DecisionStageId stage);

/// Per-stage counters. For a single pair analysis each of
/// attempts/decided/skipped is 0 or 1; MultiSafetyReport and AnalysisResult
/// carry sums over many pairs.
///
/// Every field except wall_ms is a pure function of (pair, config) — the
/// parallel engine's deterministic reduction reconstructs them in serial
/// scan order, so JSON renderings stay bit-identical at any thread count.
/// wall_ms is measured wall-clock and therefore EXCLUDED from all JSON
/// emitters; it feeds the dislock_bench per-stage timing columns only.
struct StageCounters {
  int64_t attempts = 0;          ///< stage ran its Decide()
  int64_t decided = 0;           ///< stage terminated the pipeline
  int64_t skipped = 0;           ///< inapplicable, cancelled, or already decided
  int64_t budget_exhausted = 0;  ///< stage gave up on its budget (not silent)
  /// Deterministic stage-specific work units: dominators closed
  /// (corollary2-closure), extension pairs checked (brute-force-lemma1), 1
  /// for the constant-work tests.
  int64_t work = 0;
  double wall_ms = 0.0;  ///< measured; never serialized (nondeterministic)

  void Add(const StageCounters& other) {
    attempts += other.attempts;
    decided += other.decided;
    skipped += other.skipped;
    budget_exhausted += other.budget_exhausted;
    work += other.work;
    wall_ms += other.wall_ms;
  }
};

/// One counter block per registered stage, indexed by DecisionStageId.
struct PipelineStats {
  std::array<StageCounters, kNumDecisionStages> stages;

  StageCounters& at(DecisionStageId stage) {
    return stages[static_cast<int>(stage)];
  }
  const StageCounters& at(DecisionStageId stage) const {
    return stages[static_cast<int>(stage)];
  }

  void Add(const PipelineStats& other) {
    for (int s = 0; s < kNumDecisionStages; ++s) {
      stages[s].Add(other.stages[s]);
    }
  }
};

}  // namespace dislock

#endif  // DISLOCK_CORE_DECISION_STATS_H_
