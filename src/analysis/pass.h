#ifndef DISLOCK_ANALYSIS_PASS_H_
#define DISLOCK_ANALYSIS_PASS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "core/deadlock.h"
#include "core/decision/context.h"
#include "core/multi.h"
#include "core/safety.h"
#include "txn/catalog.h"
#include "txn/system.h"
#include "util/status.h"

namespace dislock {

/// Tuning for a PassManager run. Historically a struct of its own wrapping
/// a nested SafetyOptions (`.safety`) plus cycle/thread/cache knobs
/// (`.verdict_cache`); all of it is now the one flat EngineConfig
/// (core/decision/config.h), so a single config flows unchanged from a tool
/// flag down into every pipeline stage.
using AnalysisOptions = EngineConfig;

/// Shared state handed to every pass: the system under analysis, the
/// EngineContext owning the run's thread pool / verdict cache /
/// cancellation token, and memoized results of the expensive decision
/// procedures, so that no two passes re-run the same one. The memos are
/// separate: MultiReport()'s AnalyzeMultiSafety decides each conflicting
/// pair again rather than reading PairReport()'s, so with three or more
/// transactions every such pair runs the pipeline twice (the second time
/// through the verdict cache, when one is configured).
class AnalysisContext {
 public:
  AnalysisContext(const TransactionSystem& system,
                  const AnalysisOptions& options)
      : system_(system), engine_(options) {}

  const TransactionSystem& system() const { return system_; }
  const DistributedDatabase& db() const { return system_.db(); }
  const AnalysisOptions& options() const { return engine_.config(); }
  EngineContext* engine() { return &engine_; }

  /// The (cached) AnalyzePairSafety report for the unordered pair {i, j}.
  const PairSafetyReport& PairReport(int i, int j);

  /// The (cached) Proposition 2 report for the whole system.
  const MultiSafetyReport& MultiReport();

  /// The (cached) reachable-state deadlock search, bounded by the config's
  /// max_deadlock_states (ResourceExhausted beyond). Traced under
  /// "deadlock.search".
  const Result<DeadlockReport>& Deadlock();

  /// Moves the cached deadlock search out; nullopt when no pass ran it.
  std::optional<Result<DeadlockReport>> TakeDeadlock() {
    return std::move(deadlock_cache_);
  }

  /// Sum of the DecisionPipeline statistics over every memoized analysis
  /// (each distinct pair report, plus the multi report's aggregate).
  PipelineStats PipelineTotals() const;

 private:
  const TransactionSystem& system_;
  EngineContext engine_;
  std::map<std::pair<int, int>, PairSafetyReport> pair_cache_;
  std::optional<MultiSafetyReport> multi_cache_;
  std::optional<Result<DeadlockReport>> deadlock_cache_;
};

/// One analysis pass: inspects the system through the context and appends
/// diagnostics. Passes must be deterministic and must not mutate the
/// system; the pass manager owns the run order.
class AnalysisPass {
 public:
  virtual ~AnalysisPass() = default;
  /// Stable identifier used for registration and --passes selection.
  virtual const char* name() const = 0;
  virtual const char* description() const = 0;
  virtual void Run(AnalysisContext* ctx, std::vector<Diagnostic>* out) = 0;
};

using AnalysisPassFactory = std::unique_ptr<AnalysisPass> (*)();

/// Registers a pass factory under a unique name. The built-in passes
/// self-register on first registry use; library users can add their own.
void RegisterAnalysisPass(const std::string& name,
                          AnalysisPassFactory factory);

/// Names of all registered passes, in registration order (which is the
/// default pipeline order).
std::vector<std::string> RegisteredAnalysisPasses();

/// Instantiates a registered pass; NotFound for unknown names.
Result<std::unique_ptr<AnalysisPass>> MakeAnalysisPass(
    const std::string& name);

/// Runs a configurable pipeline of passes over a system.
class PassManager {
 public:
  /// Appends a registered pass to the pipeline; NotFound if unknown.
  Status Add(const std::string& pass_name);

  /// Appends every registered pass, in registration order.
  void AddAllPasses();

  /// Names of the passes in the pipeline, in run order.
  std::vector<std::string> PipelineNames() const;

  /// Runs the pipeline. Diagnostics appear in pass order, and within one
  /// pass in the order the pass emitted them.
  AnalysisResult Run(const TransactionSystem& system,
                     const AnalysisOptions& options = {}) const;

  /// As above, over a catalog snapshot (txn/catalog.h): the snapshot is
  /// materialized in dense order for the duration of the run, so the
  /// transaction indices in the diagnostics are snapshot indices.
  AnalysisResult Run(const CatalogSnapshot& snapshot,
                     const AnalysisOptions& options = {}) const;

 private:
  std::vector<std::unique_ptr<AnalysisPass>> passes_;
};

}  // namespace dislock

#endif  // DISLOCK_ANALYSIS_PASS_H_
