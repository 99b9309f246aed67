#ifndef DISLOCK_ANALYSIS_DIAGNOSTIC_H_
#define DISLOCK_ANALYSIS_DIAGNOSTIC_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/certificate.h"
#include "core/deadlock.h"
#include "core/decision/stats.h"
#include "analysis/repair/engine.h"
#include "txn/step.h"

namespace dislock {

/// Severity of an analyzer finding.
///   * kError   — a PROVEN defect (e.g. a verified unsafety certificate);
///   * kWarning — a likely defect or an inconclusive safety analysis;
///   * kNote    — informational (safety proofs, style/discipline lints).
enum class DiagSeverity { kNote, kWarning, kError };

/// "note", "warning" or "error".
const char* DiagSeverityName(DiagSeverity severity);

/// One rule of the analyzer's catalog. Rule ids are stable ("DL002") so
/// downstream tooling can filter on them; DL0xx are safety results, DL1xx
/// are lint-grade findings, DL2xx are deadlock/protocol findings. Each rule
/// carries the severity its diagnostics are emitted at (`dislock rules`
/// prints the catalog; the SARIF driver exports it as defaultConfiguration).
struct AnalysisRule {
  const char* id;         ///< e.g. "DL002"
  const char* name;       ///< e.g. "unsafe-pair"
  const char* citation;   ///< where in the paper the rule comes from
  const char* summary;    ///< one-line description
  DiagSeverity severity;  ///< severity this rule's diagnostics carry
};

/// The full rule catalog, ordered by id. docs/analyzer.md documents each
/// entry; the SARIF emitter exports the catalog as tool metadata.
const std::vector<AnalysisRule>& AnalysisRules();

/// Looks up a rule by id; nullptr if unknown.
const AnalysisRule* FindAnalysisRule(std::string_view id);

/// What a diagnostic points at. Granularity is optional from the system
/// down to a single step: txn == -1 means the whole system; other_txn >= 0
/// marks a pair-level finding; step/entity refine the location when the
/// finding is about a specific lock section.
struct DiagnosticLocation {
  int txn = -1;
  int other_txn = -1;
  StepId step = kInvalidStep;
  EntityId entity = kInvalidEntity;
};

/// One analyzer finding.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kNote;
  /// Id of the AnalysisRule that produced this finding.
  std::string rule;
  DiagnosticLocation location;
  std::string message;
  /// Actionable suggestion; empty when there is nothing to do.
  std::string fix_hint;
  /// For unsafe verdicts: the verified Theorem 2 / Corollary 2 witness.
  std::optional<UnsafetyCertificate> certificate;
  /// For DL201: the replayable deadlock witness (schedule prefix plus the
  /// dead state's waits-for lists), re-verified by AuditAnalysis.
  std::optional<DeadlockCertificate> deadlock_certificate;
};

/// Everything a PassManager run produced.
struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;
  /// Names of the passes that ran, in order.
  std::vector<std::string> passes_run;
  /// DecisionPipeline statistics summed over every pair/system analysis the
  /// run memoized (see AnalysisContext::PipelineTotals). Deterministic at
  /// any thread count, like the diagnostics themselves.
  PipelineStats pipeline;
  /// When the `deadlock` pass ran: its reachable-state search (bounded by
  /// max_deadlock_states; ResourceExhausted beyond). Tools render the
  /// report itself from here, so a run searches once.
  std::optional<Result<DeadlockReport>> deadlock;
  /// When the tool ran repair synthesis (analyze --repair, dislock fix):
  /// the verified-repair report, rendered by every emitter.
  std::optional<RepairReport> repair;

  int Count(DiagSeverity severity) const;
  bool HasErrors() const { return Count(DiagSeverity::kError) > 0; }
};

}  // namespace dislock

#endif  // DISLOCK_ANALYSIS_DIAGNOSTIC_H_
