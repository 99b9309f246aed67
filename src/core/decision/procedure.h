#ifndef DISLOCK_CORE_DECISION_PROCEDURE_H_
#define DISLOCK_CORE_DECISION_PROCEDURE_H_

#include <memory>
#include <optional>
#include <string>

#include "core/decision/context.h"
#include "core/decision/method.h"
#include "core/decision/stats.h"
#include "core/safety.h"
#include "txn/transaction.h"

namespace dislock {

/// What one stage's Decide() produced.
///
/// `decided == true` terminates the pipeline with (verdict, method,
/// certificate, detail) — note that a terminal kUnknown is legal (the
/// two-site stage is complete for its fragment, so even its internal-error
/// path ends the pipeline rather than falling through to stages that are
/// unsound at <= 2 sites... they aren't, but the legacy cascade's contract
/// was terminal and the refactor preserves it bit for bit).
///
/// `decided == false` passes control to the next stage; `detail` then
/// carries an optional diagnostic (e.g. a ResourceExhausted status string)
/// that becomes the report detail if no later stage decides, and
/// `budget_exhausted` records that the stage hit its budget rather than
/// silently giving up.
struct StageOutcome {
  bool decided = false;
  SafetyVerdict verdict = SafetyVerdict::kUnknown;
  DecisionMethod method = DecisionMethod::kNone;
  std::optional<UnsafetyCertificate> certificate;
  std::string detail;
  bool budget_exhausted = false;
  /// Deterministic work units performed (see StageCounters::work).
  int64_t work = 0;
};

/// One decision procedure in the tiered pipeline.
///
/// Contract:
///   * Applicable() must be a pure function of the draft report (which has
///     sites_spanned, D and its strong connectivity precomputed) and the
///     config — it is how a stage claims or declines a fragment (e.g. the
///     two-site stage declines >= 3-site pairs) and how a zeroed budget
///     disables a stage outright.
///   * Decide() must be deterministic given (pair, config): any internal
///     parallelism (via ctx->pool()) must reduce to the serial result.
///     Stages poll ctx->cancel_token() at safe points and return an
///     undecided outcome when cancelled — never a partial verdict.
///   * Budgets live in the EngineConfig; a stage that exceeds its budget
///     reports budget_exhausted instead of blocking.
class DecisionProcedure {
 public:
  virtual ~DecisionProcedure() = default;

  /// Which registered stage this is; fixes the stats slot and the name.
  virtual DecisionStageId stage() const = 0;

  const char* name() const { return DecisionStageName(stage()); }

  virtual bool Applicable(const PairSafetyReport& draft,
                          const EngineConfig& config) const = 0;

  virtual StageOutcome Decide(const Transaction& t1, const Transaction& t2,
                              const PairSafetyReport& draft,
                              EngineContext* ctx) const = 0;
};

/// Factories for the four registered stages, in default pipeline order.
std::unique_ptr<DecisionProcedure> MakeTheorem1SccStage();
std::unique_ptr<DecisionProcedure> MakeTheorem2TwoSiteStage();
std::unique_ptr<DecisionProcedure> MakeCorollary2ClosureStage();
std::unique_ptr<DecisionProcedure> MakeBruteForceLemma1Stage();

}  // namespace dislock

#endif  // DISLOCK_CORE_DECISION_PROCEDURE_H_
