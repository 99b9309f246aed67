#ifndef DISLOCK_CORE_DECISION_PIPELINE_H_
#define DISLOCK_CORE_DECISION_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/decision/procedure.h"

namespace dislock {

/// Composes DecisionProcedures into the cheap-test-first cascade: stages
/// run in order; inapplicable stages are skipped; the first stage that
/// decides ends the run (later stages are counted as skipped); if no stage
/// decides the verdict is kUnknown. Per-stage counters and wall-clock land
/// in PairSafetyReport::pipeline.
///
/// The default pipeline is the paper's solver cascade:
///   1. Theorem1Scc        — sufficient SCC test, any number of sites
///   2. Theorem2TwoSite    — complete at <= 2 sites (terminal when it runs)
///   3. Corollary2Closure  — the dominator search: streams dominators and
///                           closes each, exact when the enumeration
///                           covers all of them within max_dominators
///   4. BruteForceLemma1   — exhaustive extension-pair fallback
class DecisionPipeline {
 public:
  DecisionPipeline() = default;

  /// The four registered stages in default order (shared instance; stages
  /// are stateless so one pipeline serves every thread).
  static const DecisionPipeline& Default();

  /// A fresh pipeline with the default four stages (for callers that want
  /// to append custom procedures).
  static DecisionPipeline MakeDefault();

  void Add(std::unique_ptr<DecisionProcedure> stage);

  std::vector<std::string> StageNames() const;

  /// Runs the cascade on one pair. Deterministic given (pair,
  /// ctx->config()) — see DecisionProcedure's contract.
  PairSafetyReport Decide(const Transaction& t1, const Transaction& t2,
                          EngineContext* ctx) const;

 private:
  std::vector<std::unique_ptr<DecisionProcedure>> stages_;
};

}  // namespace dislock

#endif  // DISLOCK_CORE_DECISION_PIPELINE_H_
